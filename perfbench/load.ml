(* Fixed-count closed-loop load for rt and dist: each client thread
   walks its own seeded sequence of operations, one at a time, and
   records every operation's client-observed latency and completion
   time. A window ends when every client has finished its share, so a
   trial always does the same amount of work whatever the host's
   speed. *)

open Common

type client = {
  lat : Buf.t;  (** client-observed latency of each completed op, seconds *)
  is_scan : Buf.t;  (** 1. for a SCAN, 0. for an UPDATE *)
  done_at : Buf.t;  (** completion stamps *)
  mutable failed : int;
}

type window = {
  clients : client array;
  t_start : float;
  t_end : float;  (** last completion *)
  cpu_used : float;
  peak : float;  (** peak RSS, MB, at the window's end *)
}

(* Unique across the clients of one deployment. *)
let value ~client i = ((client + 1) * 100_000_000) + i

(* A client's sequence of kinds (true = SCAN): exactly
   [scan_fraction] of them scans, in a seeded random order. A warm-up
   cycles through a sequence of 4096. *)
let plan ~seed ~client ~stop ~scan_fraction =
  let len = match stop with `Count k -> k | `Until _ -> 4096 in
  let scans = Float.to_int (Float.round (scan_fraction *. float_of_int len)) in
  let a = Array.init len (fun i -> i < scans) in
  let rng = Random.State.make [| seed; client; 0x0b |] in
  for i = len - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [op ~client ~scan ~value] runs one blocking operation and says
   whether it completed. [stop] is [`Count k] (each client runs [k]
   operations) or [`Until t] (run until the monotonic clock passes [t];
   warm-up). [on_complete] sees the running total of completions across
   all clients. *)
let run ~seed ~clients ~scan_fraction ~stop ?(on_complete = fun _ -> ()) op =
  let st =
    Array.init clients (fun _ ->
        { lat = Buf.create (); is_scan = Buf.create (); done_at = Buf.create (); failed = 0 })
  in
  let completed = Atomic.make 0 in
  let go = Atomic.make false in
  let error = Atomic.make None in
  let body c () =
    let kinds = plan ~seed ~client:c ~stop ~scan_fraction in
    let s = st.(c) in
    while not (Atomic.get go) do
      Thread.yield ()
    done;
    let more i =
      match stop with `Count k -> i < k | `Until t -> now () < t
    in
    let i = ref 0 in
    while more !i do
      let scan = kinds.(!i mod Array.length kinds) in
      let t0 = now () in
      let ok = op ~client:c ~scan ~value:(value ~client:c !i) in
      let t1 = now () in
      if ok then begin
        Buf.add s.lat (t1 -. t0);
        Buf.add s.is_scan (if scan then 1. else 0.);
        Buf.add s.done_at t1;
        on_complete (1 + Atomic.fetch_and_add completed 1)
      end
      else s.failed <- s.failed + 1;
      incr i
    done
  in
  (* An exception in a client thread would only kill that thread; keep
     the first one and re-raise it in the caller. *)
  let guarded c () =
    try body c () with e -> ignore (Atomic.compare_and_set error None (Some e))
  in
  let threads = Array.init clients (fun c -> Thread.create (guarded c) ()) in
  let c0 = cpu () and t_start = now () in
  Atomic.set go true;
  Array.iter Thread.join threads;
  let cpu_used = cpu () -. c0 in
  Option.iter raise (Atomic.get error);
  let t_end =
    Array.fold_left (fun m s -> Array.fold_left Float.max m (Buf.to_array s.done_at)) t_start st
  in
  { clients = st; t_start; t_end; cpu_used; peak = peak_rss_mb () }

let concat f w = Array.concat (Array.to_list (Array.map (fun c -> Buf.to_array (f c)) w.clients))

(* Latencies of the ops that satisfy [keep kind done_at]. *)
let latencies w keep =
  let lat = concat (fun c -> c.lat) w
  and kind = concat (fun c -> c.is_scan) w
  and done_at = concat (fun c -> c.done_at) w in
  let out = Buf.create () in
  Array.iteri (fun i l -> if keep kind.(i) done_at.(i) then Buf.add out l) lat;
  Buf.to_array out

(* The window as a trial; the caller adds its workload's extras. *)
let trial w ~extra ~check =
  let ops = Array.fold_left (fun s c -> s + Buf.length c.done_at) 0 w.clients in
  let failed = Array.fold_left (fun s c -> s + c.failed) 0 w.clients in
  {
    ops;
    attempted = ops + failed;
    failed;
    wall = w.t_end -. w.t_start;
    cpu_s = w.cpu_used;
    tail_rate = tail_rate (concat (fun c -> c.done_at) w);
    peak_mb = w.peak;
    upd_lat = latencies w (fun k _ -> k = 0.);
    scan_lat = latencies w (fun k _ -> k = 1.);
    extra;
    check;
  }

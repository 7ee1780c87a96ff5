(* Shared plumbing: clocks, statistics, per-call timers, self-time
   accounting, the in-memory span log, and the per-trial result every
   workload returns. *)

(* Monotonic seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* User + system CPU seconds of the whole process (every domain and
   thread). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of this process so far, from the kernel's
   high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let fail fmt = Printf.ksprintf failwith fmt

(* {2 Host interference}

   On a virtual machine the hypervisor may give this machine's CPUs to
   other guests for a while; the kernel counts that time as "steal" in
   the first line of /proc/stat. A trial that runs while much of the
   CPU is stolen times the neighbours, not the program. [share (read ())]
   taken later is the share of CPU time stolen in between. *)
module Steal = struct
  let read () =
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
        let v = Array.of_list (List.map float_of_string fields) in
        let total = ref 0. in
        for i = 0 to min 7 (Array.length v - 1) do
          total := !total +. v.(i)
        done;
        ((if Array.length v > 7 then v.(7) else 0.), !total)
    | _ -> (0., 0.)
    | exception (Sys_error _ | End_of_file | Failure _) -> (0., 0.)

  let share (s0, t0) =
    let s1, t1 = read () in
    if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.
end

(* {2 Statistics} *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of an unsorted sample. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let minimum a = Array.fold_left Float.min infinity a

(* Growable float buffer (latencies, completion stamps). *)
module Buf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let add b x =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * b.len) 0. in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = Array.sub b.a 0 b.len
  let length b = b.len
end

(* Mean seconds per call of [f]: grow the batch until one takes at least
   [batch_secs], then report the median of five such batches. *)
let per_call ?(batch_secs = 0.01) f =
  let run k =
    let t0 = now () in
    for _ = 1 to k do
      f ()
    done;
    now () -. t0
  in
  let rec size k = if k >= 1 lsl 24 || run k >= batch_secs then k else size (2 * k) in
  let k = size 1 in
  median (Array.init 5 (fun _ -> run k /. float_of_int k))

(* {2 Self time}

   Spans may nest (a layer calling into a deeper instrumented layer);
   a span's self time is its duration minus the time its child spans
   cover. [stack] holds the child time accumulated by each open span. *)

type acc = { mutable calls : int; mutable self : float }

let acc () = { calls = 0; self = 0. }
let stack = Array.make 64 0.
let depth = ref 0

let timed acc f =
  let d = !depth in
  stack.(d) <- 0.;
  depth := d + 1;
  let t0 = now () in
  let finish () =
    let dur = now () -. t0 in
    depth := d;
    acc.calls <- acc.calls + 1;
    acc.self <- acc.self +. dur -. stack.(d);
    if d > 0 then stack.(d - 1) <- stack.(d - 1) +. dur
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* {2 Span log}

   Operation spans recorded by the traced runs: name, start, end and the
   operation they belong to. Kept in memory during the run and written
   out as JSON lines when it ends. *)

module Spans = struct
  type span = { name : string; t0 : float; t1 : float; op : int }

  let log : span list ref = ref []
  let lock = Mutex.create ()

  (* Client threads of the rt and dist runs add concurrently. *)
  let add ~name ~t0 ~t1 ~op =
    Mutex.protect lock (fun () -> log := { name; t0; t1; op } :: !log)

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"op\":%d}\n" s.name s.t0
          s.t1 s.op)
      (List.rev !log);
    close_out oc
end

(* {2 Scratch files}

   Every file a run writes (WALs, sockets, span logs) lives under
   [.perfbench/] in the working directory, which the build ignores. *)

let out_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    let d =
      Filename.concat out_dir (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !k)
    in
    mkdir_p d;
    d

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

(* {2 Trial results} *)

(* One fixed-size timed window. Latencies are client-observed seconds;
   [tail_rate] is completions per second over the last quarter of the
   window's operations. *)
type trial = {
  ops : int;  (** completed operations in the window *)
  attempted : int;
  failed : int;
  wall : float;
  cpu_s : float;
  tail_rate : float;
  peak_mb : float;  (** process peak RSS at the window's end *)
  upd_lat : float array;
  scan_lat : float array;
  extra : (string * float) list;
      (** workload-specific numbers (deterministic counts, recovery) *)
  check : unit -> unit;
      (** the history's consistency check; raises on a violation. Run
          right after the trial, outside its timed window. *)
}

(* Completions per second over the last quarter of [stamps] (completion
   times, any order). *)
let tail_rate stamps =
  let s = sorted stamps in
  let n = Array.length s in
  let i = 3 * n / 4 in
  if n < 8 then nan else float_of_int (n - 1 - i) /. (s.(n - 1) -. s.(i))

let extra t name =
  match List.assoc_opt name t.extra with
  | Some v -> v
  | None -> fail "trial lacks %s" name

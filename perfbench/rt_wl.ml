(* rt-eqaso-scans: EQ-ASO on the domains runtime, n=3, f=1, file WAL,
   library defaults otherwise (flight recorder on, online monitor off).
   Two client threads, pinned to nodes 0 and 1, send 90% SCANs. Node 2
   has no clients; it is crashed when 40% of the operations have
   completed and restarted at 60%, so every trial also prices a
   recovery under load. *)

open Common
module S = Rt.Service

let n = 3
let f = 1
let clients = 2
let ops = 40_000
let scan_fraction = 0.9
let victim = 2

let deploy () =
  let dir = fresh_dir "rt" in
  let s = S.create ~wal_dir:dir ~algo:S.Eq_aso ~n ~f () in
  S.start s;
  (s, dir)

let teardown (s, dir) =
  S.stop s;
  rm_rf dir

let op ?(spans = false) s ~client ~scan ~value =
  let t0 = now () in
  let ok =
    if scan then
      match S.scan s ~node:client with `Snap _ -> true | `Rejected | `Aborted -> false
    else match S.update s ~node:client value with `Done -> true | `Rejected | `Aborted -> false
  in
  if spans then Spans.add ~name:(if scan then "SCAN" else "UPDATE") ~t0 ~t1:(now ()) ~op:value;
  ok

let warmup ~seed ~secs =
  let d = deploy () in
  ignore
    (Load.run ~seed ~clients ~scan_fraction ~stop:(`Until (now () +. secs)) (op (fst d))
      : Load.window);
  teardown d

(* Bring-up: create (WAL files opened), start the domains, and complete
   one UPDATE and one SCAN on every node. *)
let setup () =
  let t0 = now () in
  let s, dir = deploy () in
  for i = 0 to n - 1 do
    (match S.update s ~node:i (Load.value ~client:i 0) with
    | `Done -> ()
    | `Rejected | `Aborted -> fail "rt setup: update failed");
    match S.scan s ~node:i with
    | `Snap _ -> ()
    | `Rejected | `Aborted -> fail "rt setup: scan failed"
  done;
  let dt = now () -. t0 in
  teardown (s, dir);
  dt

(* Begin/end pairs of the span [name] on one ring's events, as
   durations in seconds. *)
let span_durations r evs name =
  let open_at = ref None and out = ref [] in
  List.iter
    (fun (e : Obs.Recorder.event) ->
      if Obs.Recorder.code_name r e.e_code = name then
        match e.e_kind with
        | Span_begin -> open_at := Some e.e_ts
        | Span_end ->
            Option.iter (fun t -> out := (e.e_ts -. t) :: !out) !open_at;
            open_at := None
        | _ -> ())
    evs;
  Array.of_list !out

(* Flight-recorder layer numbers over the window every ring still holds
   at the end (the rings keep the freshest events): operation spans on
   the nodes, parking instants and mailbox depths. Also returns the mean
   node-side op span and the window's start on the network clock. *)
let recorder_layer r =
  let rings = List.init (Obs.Recorder.rings r) (fun i -> Obs.Recorder.drain_ring (Obs.Recorder.ring r i)) in
  let lo =
    List.fold_left (fun m evs -> match evs with e :: _ -> Float.max m e.Obs.Recorder.e_ts | [] -> m) neg_infinity rings
  in
  let rings = List.map (List.filter (fun (e : Obs.Recorder.event) -> e.e_ts >= lo)) rings in
  let all = List.concat rings in
  let named name = List.filter (fun (e : Obs.Recorder.event) -> Obs.Recorder.code_name r e.e_code = name) all in
  let spans name = Array.concat (List.map (fun evs -> span_durations r evs name) rings) in
  let upd = spans "op.update" and scan = spans "op.scan" in
  let window_ops = float_of_int (max 1 (Array.length upd + Array.length scan)) in
  let parks = named "park.wait" and depths = named "mailbox.depth" in
  let values evs = Array.of_list (List.map (fun (e : Obs.Recorder.event) -> e.e_value) evs) in
  ( [
      ("rt.park_waits_per_op", float_of_int (List.length parks) /. window_ops);
      ("rt.park_us_per_op", Array.fold_left ( +. ) 0. (values parks) *. 1e6 /. window_ops);
      ("rt.mailbox_depth_mean", if depths = [] then 0. else mean (values depths));
      ("rt.node_op_us.update", mean upd *. 1e6);
      ("rt.node_op_us.scan", mean scan *. 1e6);
    ],
    mean (Array.append upd scan),
    lo )

let check_atomic h =
  match Checker.Feed.check ~n h with
  | Ok () -> ()
  | Error v -> fail "A0-A4 violated: %s" (Format.asprintf "%a" Obs.Monitor.pp_violation v)

let run_trial ~seed ~traced =
  let s, dir = deploy () in
  let recovery = ref nan and recover_spans = ref [] in
  let on_complete k =
    if k = ops * 2 / 5 then S.crash_node s victim
    else if k = ops * 3 / 5 then begin
      let t0 = now () in
      S.restart_node s victim;
      (match S.scan s ~node:victim with
      | `Snap _ -> ()
      | `Rejected | `Aborted -> fail "rt: scan after restart failed");
      recovery := now () -. t0;
      (* The recovery spans are on node 2's ring now; later traffic
         would overwrite them. *)
      if traced then
        Option.iter
          (fun r ->
            let evs = Obs.Recorder.drain_ring (Obs.Recorder.ring r victim) in
            recover_spans :=
              [
                ("rt.recover_replay_ms", 1e3 *. mean (span_durations r evs "recover.replay"));
                ("rt.recover_rejoin_ms", 1e3 *. mean (span_durations r evs "recover.rejoin"));
              ])
          (S.recorder s)
    end
  in
  let w =
    Load.run ~seed ~clients ~scan_fraction ~stop:(`Count (ops / clients)) ~on_complete
      (op ~spans:traced s)
  in
  let snap =
    match S.scan s ~node:0 with `Snap a -> a | `Rejected | `Aborted -> fail "rt: final scan failed"
  in
  S.stop s;
  let history = S.history s in
  let check () = check_atomic history in
  (* A traced trial is checked now: the history micro-timing below
     appends to it. *)
  if traced then check ();
  let t =
    Load.trial w ~extra:[ ("rt.recovery_s", !recovery) ]
      ~check:(if traced then ignore else check)
  in
  if Float.is_nan !recovery then fail "rt: node %d never recovered" victim;
  let layer =
    if not traced then []
    else begin
      let fops = float_of_int t.ops in
      let updates = Array.length t.upd_lat in
      let metric name =
        Option.value (Obs.Metrics.find_count (S.stats_snapshot s) name) ~default:0
      in
      let r = Option.get (S.recorder s) in
          let rec_layer, node_op_mean, lo = recorder_layer r in
      (* Client-observed latency over the same final window, moved from
         the network's clock onto the load generator's. *)
      let lo = lo +. now () -. Rt.Net.now (S.net s) in
      let client_mean = mean (Load.latencies w (fun _ done_at -> done_at >= lo)) in
      let wal i = Filename.concat dir (Printf.sprintf "node-%d.wal" i) in
      let wal_bytes = List.fold_left (fun s i -> s + file_size (wal i)) 0 (List.init n Fun.id) in
      [
        ("rt.msgs_per_op", float_of_int (metric "net.sent") /. fops);
        ("rt.queue_us", (client_mean -. node_op_mean) *. 1e6);
        ("recorder.events_per_op", float_of_int (Obs.Recorder.total_emitted r) /. fops);
        ("recorder.overwritten", float_of_int (Obs.Recorder.total_overwritten r));
        ("wal.bytes_per_update", float_of_int wal_bytes /. float_of_int (max 1 updates));
      ]
      @ rec_layer @ !recover_spans
      @ Layers.view ~n (Layers.synthetic_view updates)
      @ Layers.history history @ Layers.wal ~wal:(wal 0) () @ Layers.wire ~snap
    end
  in
  rm_rf dir;
  (t, layer)

let trial ~seed = fst (run_trial ~seed ~traced:false)
let traced ~seed = run_trial ~seed ~traced:true

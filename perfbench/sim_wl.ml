(* sim-eqaso-history: EQ-ASO on the deterministic simulator, n=4, f=1,
   every message taking exactly D, every node alternating UPDATE and
   SCAN back to back. Only the protocol layers run: one thread, no
   domains, sockets or file WAL. The history grows to [ops / 2] updates,
   the regime where per-op cost climbs with its length. *)

open Common
module LC = Aso_core.Lattice_core

let n = 4
let f = 1
let rounds = 2000 (* per node; each round is one UPDATE and one SCAN *)
let ops = n * rounds * 2

(* The seed staggers each node's first invocation by a fraction of D, so
   different seeds give different (each one deterministic) schedules. *)
let workload ~seed =
  let rng = Random.State.make [| seed; 0x51 |] in
  Array.map
    (function
      | (s : Harness.Workload.step) :: rest ->
          { s with gap = Random.State.float rng 1.0 } :: rest
      | [] -> [])
    (Harness.Workload.closed_loop ~n ~rounds)

let config ~seed =
  { Harness.Runner.n; f; delay = Fixed_d 1.0; seed = Int64.of_int seed }

(* Wall-clock timing around each client call: the maker wraps the
   instance's [update]/[scan] closures before the runner drives them. *)
type clock = { upd : Buf.t; scan : Buf.t; done_at : Buf.t }

let timed_maker clk engine ~n ~f ~delay =
  let inst = Harness.Algo.eq_aso.make engine ~n ~f ~delay in
  let time buf call =
    let t0 = now () in
    let r = call () in
    let t1 = now () in
    Buf.add buf (t1 -. t0);
    Buf.add clk.done_at t1;
    r
  in
  {
    inst with
    Instance.update = (fun node v -> time clk.upd (fun () -> inst.update node v));
    scan = (fun node -> time clk.scan (fun () -> inst.scan node));
  }

let check_atomic h =
  match Checker.Feed.check ~n h with
  | Ok () -> ()
  | Error v -> fail "A0-A4 violated: %s" (Format.asprintf "%a" Obs.Monitor.pp_violation v)

let trial ~seed =
  let clk = { upd = Buf.create (); scan = Buf.create (); done_at = Buf.create () } in
  let c0 = cpu () and t0 = now () in
  let out =
    Harness.Runner.run ~make:(timed_maker clk) (config ~seed)
      ~workload:(workload ~seed) ~adversary:Harness.Adversary.No_faults
  in
  let wall = now () -. t0 and cpu_s = cpu () -. c0 in
  let peak_mb = peak_rss_mb () in
  let completed = List.length (History.completed out.history) in
  if completed <> ops then fail "sim: %d of %d ops completed" completed ops;
  let steps =
    Option.value (Obs.Metrics.find_count out.metrics "engine.steps") ~default:0
  in
  {
    ops;
    attempted = ops;
    failed = 0;
    wall;
    cpu_s;
    tail_rate = tail_rate (Buf.to_array clk.done_at);
    peak_mb;
    upd_lat = Buf.to_array clk.upd;
    scan_lat = Buf.to_array clk.scan;
    extra =
      [
        ("sim.msgs_per_op", float_of_int out.messages /. float_of_int ops);
        ("sim.engine_steps_per_op", float_of_int steps /. float_of_int ops);
        ( "sim.update_latency_d",
          Harness.Runner.mean_latency (Harness.Runner.update_latencies out) );
        ( "sim.scan_latency_d",
          Harness.Runner.mean_latency (Harness.Runner.scan_latencies out) );
      ];
    check = (fun () -> check_atomic out.history);
  }

(* The deterministic numbers must repeat exactly across the trials of a
   run: same seed, same schedule. *)
let deterministic =
  [ "sim.msgs_per_op"; "sim.engine_steps_per_op"; "sim.update_latency_d"; "sim.scan_latency_d" ]

let check_repeat trials =
  match trials with
  | [] -> ()
  | t :: rest ->
      List.iter
        (fun name ->
          List.iter
            (fun t' ->
              if extra t' name <> extra t name then
                fail "sim: %s differs between trials (%.17g vs %.17g)" name
                  (extra t name) (extra t' name))
            rest)
        deterministic

(* Bring-up: build the deployment and complete one UPDATE and one SCAN
   on every node. *)
let setup ~seed =
  let t0 = now () in
  let out =
    Harness.Runner.run ~make:Harness.Algo.eq_aso.make (config ~seed)
      ~workload:(Array.init n (fun _ -> Harness.Workload.[ { gap = 0.; op = Update }; { gap = 0.; op = Scan } ]))
      ~adversary:Harness.Adversary.No_faults
  in
  let dt = now () -. t0 in
  if List.length (History.completed out.history) <> 2 * n then fail "sim setup incomplete";
  dt

(* {2 Traced run}

   The same deployment built by hand so the backend can be wrapped: the
   simulator's [Backend.net] is a record of closures, so timing every
   handler call (by message kind) and every evaluation of an [await]
   predicate needs no change inside the program. The fibers mirror the
   runner's client fibers step for step, so the schedule — and with it
   every deterministic count — is the untraced run's. *)

let kinds =
  [| "value"; "readTag"; "readAck"; "writeTag"; "writeAck"; "echoTag"; "goodLA";
     "recoverPull"; "recoverPush" |]

let kind_index m =
  let k = LC.Msg.kind m in
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

let traced ~seed =
  let handler = Array.init (Array.length kinds) (fun _ -> acc ()) in
  let await_acc = acc () in
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  let net = Sim.Network.create engine ~n ~delay:(Sim.Delay.fixed 1.0) in
  let b = Aso_core.Backend_sim.net net in
  let wrapped =
    {
      b with
      Backend.set_handler =
        (fun i h ->
          b.set_handler i (fun ~src m -> timed handler.(kind_index m) (fun () -> h ~src m)));
      new_condition =
        (fun ~node ->
          let c = b.new_condition ~node in
          { c with await = (fun pred -> c.await (fun () -> timed await_acc pred)) });
    }
  in
  let t = Aso_core.Eq_aso.create_on wrapped ~f in
  let core = Aso_core.Eq_aso.core t in
  for i = 0 to n - 1 do
    LC.set_store (LC.node core i) (Persist.Store.mem_store (Persist.Store.mem ()))
  done;
  let history = History.create () in
  let next_value = ref 1 in
  let done_at = Buf.create () in
  let stamp (op : History.op) name w0 =
    let w1 = now () in
    Buf.add done_at w1;
    Spans.add ~name ~t0:w0 ~t1:w1 ~op:op.id
  in
  let client node steps () =
    List.iter
      (fun { Harness.Workload.gap; op } ->
        if gap > 0. then Sim.Fiber.sleep ~label:(Sim.Label.Timer node) engine gap;
        let w0 = now () in
        match op with
        | Harness.Workload.Update ->
            let value = !next_value in
            incr next_value;
            let r = History.begin_update history ~now:(Sim.Engine.now engine) ~node ~value in
            Aso_core.Eq_aso.update t ~node value;
            History.finish_update history ~now:(Sim.Engine.now engine) r;
            stamp r "UPDATE" w0
        | Harness.Workload.Scan ->
            let r = History.begin_scan history ~now:(Sim.Engine.now engine) ~node in
            let snap = Aso_core.Eq_aso.scan t ~node in
            History.finish_scan history ~now:(Sim.Engine.now engine) r ~snap;
            stamp r "SCAN" w0)
      steps
  in
  let c0 = cpu () and t0 = now () in
  Array.iteri (fun node steps -> Sim.Fiber.spawn engine (client node steps)) (workload ~seed);
  Sim.Engine.run_until_quiescent engine;
  let wall = now () -. t0 and cpu_s = cpu () -. c0 in
  let peak_mb = peak_rss_mb () in
  check_atomic history;
  let fops = float_of_int ops in
  let msgs = Sim.Network.messages_sent net and steps = Sim.Engine.steps engine in
  let stats = LC.stats core in
  (* Node 0's view, read by one more (untimed) SCAN on the final state. *)
  let view = ref View.empty in
  Sim.Fiber.spawn engine (fun () -> view := Aso_core.Eq_aso.scan_view t ~node:0);
  Sim.Engine.run_until_quiescent engine;
  let handler_self = Array.fold_left (fun s a -> s +. a.self) 0. handler in
  let handler_calls = Array.fold_left (fun s a -> s + a.calls) 0 handler in
  let cpu_us_per_op = cpu_s *. 1e6 /. fops in
  let layer =
    Array.to_list
      (Array.mapi
         (fun i a ->
           ( "core.handler_us." ^ kinds.(i),
             if a.calls = 0 then 0. else a.self *. 1e6 /. float_of_int a.calls ))
         handler)
    @ [
        ("core.handler_calls_per_op", float_of_int handler_calls /. fops);
        ("core.await_checks_per_op", float_of_int await_acc.calls /. fops);
        ("core.await_check_us_per_op", await_acc.self *. 1e6 /. fops);
        ("core.lattice_ops_per_op", float_of_int stats.lattice_ops /. fops);
        ( "core.good_lattice_ratio",
          float_of_int stats.good_lattice_ops /. float_of_int (max 1 stats.lattice_ops) );
        ( "core.unattributed_us_per_op",
          cpu_us_per_op -. ((handler_self +. await_acc.self) *. 1e6 /. fops) );
        ("sim.msgs_per_op", float_of_int msgs /. fops);
        ("sim.engine_steps_per_op", float_of_int steps /. fops);
      ]
    @ Layers.view ~n !view
    @ Layers.history history @ Layers.wal ()
    @ Layers.wire ~snap:(Layers.last_snapshot history ~n)
  in
  ( {
      ops;
      attempted = ops;
      failed = 0;
      wall;
      cpu_s;
      tail_rate = tail_rate (Buf.to_array done_at);
      peak_mb;
      upd_lat = [||];
      scan_lat = [||];
      extra = [];
      check = ignore;
    },
    layer )

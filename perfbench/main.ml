(* The benchmark: one workload, one seed, one mode per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--max-wait W] [--commit ID] [--loadavg L]

   Untraced (--trace 0): a warm-up on a throwaway deployment (rt and
   dist), then fixed-size trials back to back for about S seconds (at
   least three), each preceded by a batch of bring-ups. Every trial's
   history passes its consistency check. Only calm trials are reported:
   those during which the hypervisor stole little CPU from this machine
   (see [calm_steal]). A run whose trials are not calm waits for calm
   ones, up to W more seconds. Every timing is the median over the calm
   trials of that trial's number, except setup_s (see [untraced]).

   Traced (--trace 1): untraced and traced trials alternate in the
   same way; the per-layer numbers come from the calm traced trials
   and trace.overhead_ratio compares the two kinds.

   The last line of output is one JSON object: correct, attempted,
   failed and the metrics of the mode. *)

open Common

type workload = {
  name : string;
  warmup : (seed:int -> secs:float -> unit) option;
  warmup_secs : float;
  setup : seed:int -> float;
  bringups : int;  (** per batch; two batches per trial *)
  trial : seed:int -> first:bool -> trial;
  traced : seed:int -> trial * (string * float) list;
  check_trials : trial list -> unit;
}

let workloads =
  [
    {
      name = "sim-eqaso-history";
      warmup = None;
      warmup_secs = 0.;
      setup = Sim_wl.setup;
      bringups = 10;
      trial = (fun ~seed ~first:_ -> Sim_wl.trial ~seed);
      traced = Sim_wl.traced;
      check_trials = Sim_wl.check_repeat;
    };
    {
      name = "rt-eqaso-scans";
      warmup = Some Rt_wl.warmup;
      warmup_secs = 1.;
      setup = (fun ~seed:_ -> Rt_wl.setup ());
      bringups = 5;
      trial = (fun ~seed ~first:_ -> Rt_wl.trial ~seed);
      traced = Rt_wl.traced;
      check_trials = ignore;
    };
    {
      name = "dist-sso-writes";
      warmup = Some Dist_wl.warmup;
      warmup_secs = 2.;
      setup = (fun ~seed:_ -> Dist_wl.setup ());
      bringups = 12;
      trial = Dist_wl.trial;
      traced = Dist_wl.traced;
      check_trials = ignore;
    };
  ]

(* Every metric either mode prints, with its unit, in BENCHMARK.json
   order. A traced run reports 0 for a layer its workload never crosses
   (sim sends no socket frames; rt and dist run no simulator). *)
let end_to_end =
  [
    ("ops_per_s", "1/s"); ("tail_ops_per_s", "1/s"); ("cpu_us_per_op", "us");
    ("update_p50_ms", "ms"); ("update_p99_ms", "ms"); ("scan_p50_ms", "ms");
    ("scan_p99_ms", "ms"); ("completed_op_ratio", "ratio"); ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [ ("view.size", "count"); ("view.count_le_us", "us"); ("view.extract_us", "us");
    ("view.union_us", "us"); ("view.subset_us", "us") ]
  @ List.map (fun k -> ("core.handler_us." ^ k, "us")) (Array.to_list Sim_wl.kinds)
  @ [
      ("core.handler_calls_per_op", "count"); ("core.await_checks_per_op", "count");
      ("core.await_check_us_per_op", "us"); ("core.lattice_ops_per_op", "count");
      ("core.good_lattice_ratio", "ratio"); ("core.unattributed_us_per_op", "us");
      ("sim.msgs_per_op", "count"); ("sim.engine_steps_per_op", "count");
      ("sim.update_latency_d", "D"); ("sim.scan_latency_d", "D");
      ("rt.msgs_per_op", "count"); ("rt.park_waits_per_op", "count");
      ("rt.park_us_per_op", "us"); ("rt.mailbox_depth_mean", "count");
      ("rt.node_op_us.update", "us"); ("rt.node_op_us.scan", "us"); ("rt.queue_us", "us");
      ("rt.recover_replay_ms", "ms"); ("rt.recover_rejoin_ms", "ms"); ("rt.recovery_s", "s");
      ("history.stamp_ns", "ns"); ("recorder.events_per_op", "count");
      ("recorder.overwritten", "count"); ("wal.append_us", "us");
      ("wal.bytes_per_update", "B"); ("wal.replay_ms", "ms");
      ("dist.frames_per_op", "count"); ("dist.retransmits_per_op", "count");
      ("transport.frame_ns", "ns"); ("wire.encode_ns", "ns"); ("wire.decode_ns", "ns");
      ("wire.resp_scan_bytes", "B"); ("dist.node_service_us.update", "us");
      ("dist.node_service_us.scan", "us"); ("dist.client_overhead_us", "us");
      ("failed_op_ratio", "ratio"); ("trace.overhead_ratio", "ratio");
    ]

let min_trials = 3

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Per run and kind, so that a p99 has at least ten samples beyond it. *)
let min_samples = 1000

(* A trial is calm when the hypervisor stole at most this share of the
   CPU while it (and its bring-ups) ran. Calm trials see under 1.5% on
   a 2-vCPU virtual machine. From 1.5% on, p99 latencies on the
   runtime and socket backends grow by half and throughput drops by a
   fifth; in the hypervisor's busy spells, which last minutes, it
   steals 10-25% and p99s grow up to sevenfold. *)
let calm_steal = 0.015

(* Fixed-size trials until the calm ones have taken about [seconds] (at
   least [min_trials] of them) or, while the hypervisor keeps stealing,
   until [seconds + max_wait] have gone by (at least [min_trials]
   trials). [f] runs one trial, [check] checks its history. Each trial
   starts from a fully collected heap, so no trial pays for the previous
   one's garbage. The check runs as soon as the trial ends, outside the
   time budget, and then the history is dropped: a run that kept every
   history alive would make each later trial's collector mark more.
   Returns every trial with its stolen share, and the seconds spent in
   trials that were not calm. *)
let repeat ~seconds ~max_wait ~check f =
  let rec go k ~spent ~calm_spent ~calm acc =
    let per = spent /. float_of_int (max k 1) in
    if
      (calm >= min_trials && calm_spent +. per > seconds)
      || (k >= min_trials && spent +. per > seconds +. max_wait)
    then (List.rev acc, spent -. calm_spent)
    else begin
      Gc.compact ();
      let s0 = Steal.read () and t0 = now () in
      let x = f k in
      let d = now () -. t0 and st = Steal.share s0 in
      let x = check x in
      say "#   steal %.1f%%" (100. *. st);
      if st <= calm_steal then
        go (k + 1) ~spent:(spent +. d) ~calm_spent:(calm_spent +. d) ~calm:(calm + 1)
          ((x, st) :: acc)
      else go (k + 1) ~spent:(spent +. d) ~calm_spent ~calm ((x, st) :: acc)
    end
  in
  go 0 ~spent:0. ~calm_spent:0. ~calm:0 []

(* The calm trials, or the [min_trials] least stolen ones when fewer
   were calm; in run order. *)
let calm_trials xs =
  let calm = List.filter (fun (_, st) -> st <= calm_steal) xs in
  let keep =
    if List.length calm >= min_trials then calm
    else
      let by_steal = List.stable_sort (fun (_, a) (_, b) -> compare a b) xs in
      List.filteri (fun i _ -> i < min_trials) by_steal
  in
  List.filter_map (fun x -> if List.memq x keep then Some (fst x) else None) xs

let check_trial t =
  t.check ();
  { t with check = ignore }

let rate t = float_of_int t.ops /. t.wall
let med f trials = median (Array.of_list (List.map f trials))
let total f trials = List.fold_left (fun s t -> s + f t) 0 trials

let print_trial k t =
  let ms a q = 1e3 *. quantile a q in
  say
    "# trial %d: ops=%d wall=%.3fs ops/s=%.1f tail ops/s=%.1f cpu us/op=%.2f rss %.1f MB update p50/p99 \
     %.3f/%.3f ms scan p50/p99 %.3f/%.3f ms"
    k t.ops t.wall (rate t) t.tail_rate
    (t.cpu_s *. 1e6 /. float_of_int t.ops) t.peak_mb
    (ms t.upd_lat 0.5) (ms t.upd_lat 0.99) (ms t.scan_lat 0.5) (ms t.scan_lat 0.99)

(* Bring-ups run in batches, one before each trial and one after its
   check. setup_s is the median of a batch, the typical bring-up at one
   moment, taken from the fastest batch of the run's calm trials. The
   median discards a lucky bring-up (on the socket backend a few skip
   the 10 ms dial backoff); the fastest batch discards moments
   when the host is slow (a sim bring-up takes about 90 or about 140 us,
   and which of the two flips every few seconds). *)
let untraced w ~seed ~seconds ~max_wait =
  Option.iter (fun f -> f ~seed ~secs:w.warmup_secs) w.warmup;
  let bringups () = Array.init w.bringups (fun _ -> w.setup ~seed) in
  let all, waited =
    repeat ~seconds ~max_wait
      ~check:(fun (b, t) ->
        let t = check_trial t in
        ([ b; bringups () ], t))
      (fun k ->
        let b = bringups () in
        let t = w.trial ~seed ~first:(k = 0) in
        print_trial k t;
        (b, t))
  in
  say "# waited %.3f" waited;
  let every = List.map (fun ((_, t), _) -> t) all in
  w.check_trials every;
  let calm = calm_trials all in
  let trials = List.map snd calm in
  let count f = total (fun t -> Array.length (f t)) trials in
  let updates = count (fun t -> t.upd_lat) and scans = count (fun t -> t.scan_lat) in
  let batches = List.concat_map fst calm in
  let setup_s = minimum (Array.of_list (List.map median batches)) in
  say
    "# %d trials, %d calm (steal <= %g%%), %d updates, %d scans; setup: %.6fs, batch medians %s"
    (List.length all) (List.length trials) (100. *. calm_steal) updates scans setup_s
    (String.concat " " (List.map (fun b -> Printf.sprintf "%.6f" (median b)) batches));
  if updates < min_samples || scans < min_samples then
    fail "too few latency samples (update %d, scan %d; need %d)" updates scans min_samples;
  (* Latency percentiles are taken per trial, then the median across
     trials: the host's speed drifts by a fifth from trial to trial even
     when it steals nothing, and pooled samples would take the slowest
     trial's tail. *)
  let ms q lat = med (fun t -> 1e3 *. quantile (lat t) q) trials in
  let metrics =
    [
      ("ops_per_s", med rate trials);
      ("tail_ops_per_s", med (fun t -> t.tail_rate) trials);
      ("cpu_us_per_op", med (fun t -> t.cpu_s *. 1e6 /. float_of_int t.ops) trials);
      ("update_p50_ms", ms 0.5 (fun t -> t.upd_lat));
      ("update_p99_ms", ms 0.99 (fun t -> t.upd_lat));
      ("scan_p50_ms", ms 0.5 (fun t -> t.scan_lat));
      ("scan_p99_ms", ms 0.99 (fun t -> t.scan_lat));
      ( "completed_op_ratio",
        float_of_int (total (fun t -> t.ops) every)
        /. float_of_int (total (fun t -> t.attempted) every) );
      ("setup_s", setup_s);
      (* The first window's: later ones would also see the heap the
         consistency checks grew (OCaml 5.1 does not hand it back). *)
      ("peak_rss_mb", (List.hd every).peak_mb);
    ]
  in
  let extras =
    match trials with
    | t :: _ -> List.map (fun (name, _) -> (name, med (fun t -> extra t name) trials)) t.extra
    | [] -> []
  in
  List.iter (fun (name, v) -> say "# %s %.6g" name v) extras;
  (every, metrics)

let traced w ~seed ~seconds ~max_wait =
  Option.iter (fun f -> f ~seed ~secs:w.warmup_secs) w.warmup;
  let all, waited =
    repeat ~seconds ~max_wait
      ~check:(fun (plain, tr) -> (check_trial plain, tr))
      (fun k ->
        let plain = w.trial ~seed ~first:(k = 0) in
        print_trial k plain;
        let t, layer = w.traced ~seed in
        say "# traced:";
        print_trial k t;
        (plain, (t, layer)))
  in
  say "# waited %.3f" waited;
  let every = List.map (fun ((plain, _), _) -> plain) all in
  w.check_trials every;
  let runs = calm_trials all in
  let plain = List.map fst runs and traced = List.map (fun (_, (t, _)) -> t) runs in
  let layers = List.map (fun (_, (_, l)) -> l) runs in
  let layer name = med (fun l -> List.assoc name l) layers in
  let names = List.map fst (List.hd layers) in
  (* Deterministic counts measured on the wrapped deployment must match
     the untraced runner's: the wrappers may not change the schedule. *)
  List.iter
    (fun (name, _) ->
      if List.mem name names then
        let a = layer name and b = extra (List.hd plain) name in
        if a <> b then fail "%s: traced %.17g vs untraced %.17g" name a b)
    (List.hd plain).extra;
  let from_plain =
    List.map (fun (name, _) -> (name, med (fun t -> extra t name) plain)) (List.hd plain).extra
  in
  let metrics =
    List.map (fun name -> (name, layer name)) names
    @ List.filter (fun (name, _) -> not (List.mem name names)) from_plain
    @ [
        ( "failed_op_ratio",
          float_of_int (total (fun t -> t.failed) every)
          /. float_of_int (total (fun t -> t.attempted) every) );
        ("trace.overhead_ratio", med rate traced /. med rate plain);
      ]
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then fail "unknown per-layer metric %s" name)
    metrics;
  (every, List.map (fun (name, _) -> (name, Option.value (List.assoc_opt name metrics) ~default:0.)) per_layer)

let json_result ~correct ~attempted ~failed metrics units =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i (name, v) ->
      if not (Float.is_finite v) then fail "metric %s is not a finite number" name;
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v (List.assoc name units))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let max_wait = ref 0. in
  let commit = ref "unknown" and loadavg = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--max-wait", Arg.Set_float max_wait, "S");
      ("--commit", Arg.Set_string commit, "ID");
      ("--loadavg", Arg.Set_string loadavg, "L");
    ]
    (fun a -> raise (Arg.Bad a))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--max-wait W]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  mkdir_p out_dir;
  say "# perfbench %s seed=%d seconds=%g trace=%d" w.name !seed !seconds !trace;
  say
    "# meta {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \
     \"loadavg_start\": %S, \"warmup\": %b, \"warmup_s\": %g}"
    w.name !seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit !loadavg (w.warmup <> None) w.warmup_secs;
  match
    let trials, metrics, units =
      if !trace = 0 then
        let trials, m = untraced w ~seed:!seed ~seconds:!seconds ~max_wait:!max_wait in
        (trials, m, end_to_end)
      else
        let trials, m = traced w ~seed:!seed ~seconds:!seconds ~max_wait:!max_wait in
        Spans.write (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name !seed));
        (trials, m, per_layer)
    in
    List.iter (fun (name, v) -> say "%-30s %14.6g %s" name v (List.assoc name units)) metrics;
    json_result ~correct:true
      ~attempted:(total (fun t -> t.attempted) trials)
      ~failed:(total (fun t -> t.failed) trials)
      metrics units
  with
  | result -> print_endline result
  | exception Failure msg ->
      Printf.eprintf "perfbench: %s\n%!" msg;
      exit 1

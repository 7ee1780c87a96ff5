(* dist-sso-writes: SSO-Fast-Scan on the socket backend, n=3, f=1. Each
   node is a [Dist.Node_main] on its own thread ([Dist.Local]) with its
   WAL on, talking over real unix sockets. Two [Dist.Client]
   connections, to nodes 0 and 1, send 80% UPDATEs: updates cross the
   wire codec, the transport and the quorum; SSO scans are local. *)

open Common
module Sup = Dist.Supervisor

let n = 3
let f = 1
let clients = 2
let ops = 2_500
let scan_fraction = 0.2

let deploy () =
  let dir = fresh_dir "dist" in
  (Dist.Local.start ~wal:true ~algo:Rt.Service.Sso_fast_scan ~n ~f ~dir (), dir)

let connect cluster i =
  match Dist.Client.connect (Dist.Local.endpoints cluster).(i) with
  | Some c -> c
  | None -> fail "dist: cannot connect to node %d" i

let teardown conns (cluster, dir) =
  Array.iter Dist.Client.close conns;
  Dist.Local.stop cluster;
  rm_rf dir

(* Per-client records: what the history merge needs, plus node-side
   service times by kind. *)
type side = { mutable recs : Sup.op_rec list; node_upd : Buf.t; node_scan : Buf.t }

let op ?(spans = false) conns sides ~client ~scan ~value =
  let cl = conns.(client) and sd = sides.(client) in
  let record kind ~inv ~resp ~ok =
    sd.recs <- { Sup.o_node = client; o_kind = kind; o_inv = inv; o_resp = resp; o_ok = ok } :: sd.recs
  in
  let served buf ~inv ~resp =
    Buf.add buf (float_of_int (resp - inv) *. 1e-9);
    if spans then
      Spans.add ~name:(if scan then "node.SCAN" else "node.UPDATE")
        ~t0:(float_of_int inv *. 1e-9) ~t1:(float_of_int resp *. 1e-9) ~op:value
  in
  let t0 = Dist.Net.now_ns () in
  let ok =
    if scan then
      match Dist.Client.scan cl with
      | Ok (snap, inv, resp) ->
          record (Sup.K_scan snap) ~inv ~resp ~ok:true;
          served sd.node_scan ~inv ~resp;
          true
      | Error () ->
          record (Sup.K_scan [||]) ~inv:t0 ~resp:(Dist.Net.now_ns ()) ~ok:false;
          false
    else
      match Dist.Client.update cl value with
      | Ok (inv, resp) ->
          record (Sup.K_update value) ~inv ~resp ~ok:true;
          served sd.node_upd ~inv ~resp;
          true
      | Error () ->
          record (Sup.K_update value) ~inv:t0 ~resp:(Dist.Net.now_ns ()) ~ok:false;
          false
  in
  if spans then
    Spans.add ~name:(if scan then "SCAN" else "UPDATE")
      ~t0:(float_of_int t0 *. 1e-9) ~t1:(float_of_int (Dist.Net.now_ns ()) *. 1e-9) ~op:value;
  ok

let fresh_sides () = Array.init clients (fun _ -> { recs = []; node_upd = Buf.create (); node_scan = Buf.create () })

let warmup ~seed ~secs =
  let d = deploy () in
  let conns = Array.init clients (connect (fst d)) in
  ignore
    (Load.run ~seed ~clients ~scan_fraction ~stop:(`Until (now () +. secs))
       (op conns (fresh_sides ()))
      : Load.window);
  teardown conns d

(* Bring-up: listeners bound, WALs open, one client connected to every
   node, and one UPDATE and one SCAN completed on each. *)
let setup () =
  let t0 = now () in
  let d = deploy () in
  let conns = Array.init n (connect (fst d)) in
  Array.iteri
    (fun i cl ->
      (match Dist.Client.update cl (Load.value ~client:i 0) with
      | Ok _ -> ()
      | Error () -> fail "dist setup: update failed");
      match Dist.Client.scan cl with Ok _ -> () | Error () -> fail "dist setup: scan failed")
    conns;
  let dt = now () -. t0 in
  teardown conns d;
  dt

(* S1-S3 on every trial through the streaming monitor; the first trial
   of a run also goes through the batch checker, which adds the
   constructive sequentialization but costs seconds on a history of
   this size. *)
let check_sequential ~batch h =
  let m = Obs.Monitor.create ~mode:Sequential ~n () in
  List.iter
    (fun ev ->
      match Obs.Monitor.feed m ev with
      | Ok () -> ()
      | Error v -> fail "S1-S3 violated: %s" (Format.asprintf "%a" Obs.Monitor.pp_violation v))
    (Checker.Feed.events h);
  if batch then
    match Checker.Batch.check ~n Checker.Batch.Sequential h with
    | Ok () -> ()
    | Error e -> fail "S1-S3 violated (batch checker): %s" e

let run_trial ~seed ~first ~traced =
  let ((cluster, dir) as d) = deploy () in
  let conns = Array.init clients (connect cluster) in
  let sides = fresh_sides () in
  let w =
    Load.run ~seed ~clients ~scan_fraction ~stop:(`Count (ops / clients))
      (op ~spans:traced conns sides)
  in
  let counters =
    List.init n (fun i -> Obs.Metrics.snapshot (Dist.Net.metrics (Dist.Local.net cluster i)))
  in
  let wal i = Filename.concat dir (Printf.sprintf "node-%d.wal" i) in
  let wal_bytes = List.fold_left (fun s i -> s + file_size (wal i)) 0 (List.init n Fun.id) in
  let replay = if traced then Layers.wal ~wal:(wal 0) () else [] in
  teardown conns d;
  let recs = List.concat_map (fun sd -> sd.recs) (Array.to_list sides) in
  let history = Sup.merge_history recs in
  let check () = check_sequential ~batch:first history in
  (* A traced trial is checked now: the history micro-timing below
     appends to it. *)
  if traced then check ();
  let t = Load.trial w ~extra:[] ~check:(if traced then ignore else check) in
  let layer =
    if not traced then []
    else begin
      let fops = float_of_int t.ops in
      let sum name =
        List.fold_left
          (fun s snap -> s + Option.value (Obs.Metrics.find_count snap name) ~default:0)
          0 counters
      in
      let pooled f = Array.concat (List.map (fun sd -> Buf.to_array (f sd)) (Array.to_list sides)) in
      let node_upd = pooled (fun sd -> sd.node_upd) and node_scan = pooled (fun sd -> sd.node_scan) in
      let snap =
        List.find_map
          (fun (r : Sup.op_rec) -> match r.o_kind with Sup.K_scan s when r.o_ok -> Some s | _ -> None)
          recs
        |> Option.value ~default:(Array.make n None)
      in
      [
        ("dist.frames_per_op", float_of_int (sum "dist.data_sent" + sum "dist.acks_sent") /. fops);
        ("dist.retransmits_per_op", float_of_int (sum "dist.retransmits") /. fops);
        ("dist.node_service_us.update", mean node_upd *. 1e6);
        ("dist.node_service_us.scan", mean node_scan *. 1e6);
        ( "dist.client_overhead_us",
          (mean (Array.append t.upd_lat t.scan_lat) -. mean (Array.append node_upd node_scan)) *. 1e6 );
        ("wal.bytes_per_update", float_of_int wal_bytes /. float_of_int (max 1 (Array.length t.upd_lat)));
      ]
      @ replay
      @ Layers.view ~n (Layers.synthetic_view (Array.length t.upd_lat))
      @ Layers.history history @ Layers.wire ~snap
    end
  in
  (t, layer)

let trial ~seed ~first = fst (run_trial ~seed ~first ~traced:false)
let traced ~seed = run_trial ~seed ~first:false ~traced:true

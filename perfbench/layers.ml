(* Per-call costs of single layers, timed from outside through each
   layer's public functions. Every traced run calls these on the state
   its own deployment ended with (its final view, its history, its WAL),
   so the numbers track the size the workload grew them to. *)

open Common

let us s = s *. 1e6
let ns s = s *. 1e9

(* A view shaped like one a run of [k] updates from two writers
   leaves behind (rt and dist do not expose a node's view). *)
let synthetic_view k =
  View.of_list
    (List.init k (fun i -> Timestamp.make ~tag:((i / 2) + 1) ~writer:(i mod 2)))

(* [Proto.View]: the operations the kernel runs on every lattice step and
   every SCAN, on the final view [v]. [v'] is [v] plus one newer
   timestamp — the near-equal views the equivalence checks compare. *)
let view ~n v =
  let top = View.max_tag v in
  let v' = View.add (Timestamp.make ~tag:(top + 1) ~writer:0) v in
  [
    ("view.size", float_of_int (View.cardinal v));
    ("view.count_le_us", us (per_call (fun () -> ignore (View.count_le v ~max_tag:top))));
    ( "view.extract_us",
      us (per_call (fun () -> ignore (View.extract v ~n ~value_of:Timestamp.tag))) );
    ("view.union_us", us (per_call (fun () -> ignore (View.union v v'))));
    ("view.subset_us", us (per_call (fun () -> ignore (View.subset v v'))));
  ]

(* [Proto.History]: one begin+finish pair appended to the run's own
   history. Batches stay small: every call grows the history. *)
let history h =
  let value = ref (-1) in
  let pair () =
    decr value;
    let op = History.begin_update h ~now:0. ~node:0 ~value:!value in
    History.finish_update h ~now:0. op
  in
  [ ("history.stamp_ns", ns (per_call ~batch_secs:0.001 pair)) ]

(* [Persist.Log]: append to a fresh writer (one write plus flush per
   record), and replay of [wal] — a WAL the run wrote — when given. *)
let wal ?wal () =
  let dir = fresh_dir "wal-micro" in
  let w = Persist.Log.create_writer (Filename.concat dir "append.wal") in
  let tag = ref 0 in
  let append () =
    incr tag;
    Persist.Log.append w (Persist.Record.Entry { tag = !tag; writer = 0; value = !tag })
  in
  let append_s = per_call ~batch_secs:0.002 append in
  Persist.Log.close_writer w;
  rm_rf dir;
  let replay_ms =
    match wal with
    | None -> 0.
    | Some path ->
        1e3
        *. median
             (Array.init 3 (fun _ ->
                  let t0 = now () in
                  (match Persist.Log.replay_file path with
                  | Ok _ -> ()
                  | Error e -> fail "replay %s: %s" path e);
                  now () -. t0))
  in
  [ ("wal.append_us", us append_s); ("wal.replay_ms", replay_ms) ]

(* The newest SCAN result in [h] (an all-[None] snapshot if none). *)
let last_snapshot h ~n =
  List.fold_left
    (fun acc (op : History.op) -> match op.kind with Scan (Some s) -> s | _ -> acc)
    (Array.make n None) (History.completed h)

(* [Dist.Wire] and [Dist.Transport]: the codec over every [Data] kind
   plus client [Req]/[Resp], the size of a SCAN response carrying
   [snap], and one frame through sender and receiver state machines. *)
let wire ~snap =
  let ts = Timestamp.make ~tag:1000 ~writer:1 in
  let msgs : Dist.Wire.msg list =
    Aso_core.Lattice_core.Msg.
      [
        Value { ts; value = 123_456 };
        Read_tag { req = 77 };
        Read_ack { req = 77; tag = 1000 };
        Write_tag { req = 78; tag = 1000 };
        Write_ack { req = 78 };
        Echo_tag { tag = 1000 };
        Good_la { tag = 1000 };
        Recover_pull { req = 79 };
        Recover_push
          {
            req = 79;
            entries = List.init 8 (fun i -> (Timestamp.make ~tag:(i + 1) ~writer:0, i));
            max_tag = 8;
          };
      ]
  in
  let resp_scan =
    Dist.Wire.Resp { rid = 4242; t_inv = 1_000_000_000; t_resp = 1_000_250_000; result = R_scan snap }
  in
  let frames =
    List.map (fun msg -> Dist.Wire.Data { seq = 1234; msg }) msgs
    @ [
        Dist.Wire.Req { rid = 4242; op = Op_update 123_456 };
        Dist.Wire.Req { rid = 4242; op = Op_scan };
        Dist.Wire.Resp { rid = 4242; t_inv = 1_000_000_000; t_resp = 1_000_250_000; result = R_update_done };
        resp_scan;
      ]
  in
  let avg f = mean (Array.of_list (List.map f frames)) in
  let encode_s = avg (fun fr -> per_call ~batch_secs:0.002 (fun () -> ignore (Dist.Wire.encode fr))) in
  let decode_s =
    avg (fun fr ->
        let s = Dist.Wire.encode fr in
        per_call ~batch_secs:0.002 (fun () ->
            match Dist.Wire.decode s ~pos:0 with
            | Ok _ -> ()
            | Error e -> fail "wire: %s" (Format.asprintf "%a" Dist.Wire.pp_error e)))
  in
  let tx = Dist.Transport.tx () and rx = Dist.Transport.rx () in
  let msg = List.hd msgs in
  let frame () =
    let seq = Dist.Transport.tx_send tx ~now:0. msg in
    ignore (Dist.Transport.rx_data rx ~seq msg);
    ignore (Dist.Transport.tx_ack tx ~now:0. ~upto:(Dist.Transport.rx_expected rx))
  in
  [
    ("wire.encode_ns", ns encode_s);
    ("wire.decode_ns", ns decode_s);
    ("wire.resp_scan_bytes", float_of_int (String.length (Dist.Wire.encode resp_scan)));
    ("transport.frame_ns", ns (per_call ~batch_secs:0.002 frame));
  ]

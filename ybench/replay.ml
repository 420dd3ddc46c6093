(* The traced run: the wire run's generated inputs replayed in-process,
   through each layer's public functions, with a span around every call.

   The replay mirrors what the server does per request: decode the frame,
   parse, then reads execute at once while writes and entangled queries
   queue for a batch that runs inside one WAL group flush followed by one
   coordinator poke; every answer is rendered and encoded back.  Spans are
   recorded by this file only (the library is untouched), so the same
   replay runs a second time without spans to measure their overhead. *)

module Wire = Net.Wire
module System = Youtopia.System

type result = {
  self_ns : (string, Stat.Buf.t) Hashtbl.t;  (** layer -> self times *)
  stream_s : float;  (** wall time of replaying the stream ops *)
  stream_ops : int;
  reads : int;
  rows_examined : int;  (** scanned rows + index lookups over the reads *)
}

let remove_wal wal = if Sys.file_exists wal then Sys.remove wal

let body_of_response = function
  | System.Sql r -> Wire.Sql_result (Sql.Run.result_to_string r)
  | System.Coordination (Core.Coordinator.Registered id) -> Wire.Registered id
  | System.Coordination (Core.Coordinator.Answered n) -> Wire.Answered n
  | System.Coordination (Core.Coordinator.Rejected m) -> Wire.Rejected m
  | System.Coordination (Core.Coordinator.Multi _) -> Wire.Listing "multi"
  | System.Pending_listing s -> Wire.Listing s

(** [run w ~seed ~ops ~batch ~wal ~checks ~traced] — a fresh system as the
    server builds it ([--travel], the workload's durability), the set-up
    loads applied untimed, then — timed — the parked backlog, the first
    [ops] stream ops in batches of [batch] writes, and the [checks]
    reads. *)
let run (w : Gen.workload) ~seed ~ops ~batch ~wal ~checks ~traced =
  remove_wal wal;
  let sys =
    Travel.Datagen.make_system ~wal_path:wal ~seed:1 ~n_flights:32 ~n_hotels:16 ()
  in
  let db = System.database sys in
  (match Relational.Wal.durability_of_string w.durability with
  | Some d -> Relational.Database.set_durability db d
  | None -> invalid_arg "durability");
  let cat = System.catalog sys in
  let sessions = [| System.session sys "c0"; System.session sys "c1" |] in
  let setup = Gen.setup w in
  List.iter (fun sql -> ignore (System.exec_sql sys sessions.(0) sql)) setup.ddl;
  List.iter (fun (sql, _) -> ignore (System.exec_sql sys sessions.(0) sql)) setup.load;
  let sp = Spans.create ~enabled:traced in
  let span ~req name f = Spans.record sp ~req name f in
  let reads = ref 0 and rows = ref 0 in
  let codec_resp ~req resp =
    span ~req "net.codec_resp" (fun () ->
        let frame = Wire.encode_response (Wire.Result { id = req; body = body_of_response resp }) in
        ignore (Wire.decode_response frame))
  in
  (* writes and entangled queries wait here for their batch *)
  let queue = ref [] in
  let flush_batch () =
    let items = List.rev !queue in
    queue := [];
    if items <> [] then begin
      let req = fst (List.hd items) in
      let results =
        span ~req "batch" (fun () ->
            let results =
              span ~req "relational.wal_batch" (fun () ->
                  Relational.Database.with_wal_batch db (fun () ->
                      List.map (fun (req, exec) -> (req, exec ())) items))
            in
            let dml =
              List.length
                (List.filter
                   (function
                     | _, System.Sql _ -> true
                     | _, System.Coordination (Core.Coordinator.Answered _) -> true
                     | _ -> false)
                   results)
            in
            span ~req "core.poke" (fun () -> ignore (System.poke_batch sys ~statements:dml));
            results)
      in
      List.iter (fun (req, resp) -> span ~req "op" (fun () -> codec_resp ~req resp)) results
    end
  in
  let replay_sql ~req ~conn ~cls sql =
    let session = sessions.(conn) in
    span ~req "op" (fun () ->
        span ~req "net.codec_req" (fun () ->
            ignore (Wire.decode_request (Wire.encode_request (Wire.Submit { id = req; sql }))));
        let parse_name =
          match cls with
          | Gen.Read -> "sql.parse_read"
          | Gen.Write -> "sql.parse_write"
          | Gen.Entangled -> "sql.parse_entangled"
        in
        match span ~req parse_name (fun () -> Sql.Parser.parse_script sql) with
        | [ (Sql.Ast.Select sel as stmt) ] when cls = Gen.Read ->
          span ~req "sql.compile" (fun () -> ignore (Sql.Compile.compile_select cat sel));
          let examined () =
            let c = Relational.Executor.counters in
            c.rows_scanned + c.index_lookups
          in
          let before = examined () in
          let resp = span ~req "system.exec_read" (fun () -> System.exec sys session stmt) in
          rows := !rows + examined () - before;
          incr reads;
          codec_resp ~req resp
        | [ (Sql.Ast.Select sel) ] when cls = Gen.Entangled ->
          let q =
            span ~req "core.translate" (fun () ->
                Core.Translate.of_select cat ~owner:(Youtopia.Session.user session)
                  ~label:sql sel)
          in
          queue :=
            (req, fun () ->
                span ~req "core.submit" (fun () ->
                    System.Coordination (System.submit_equery sys session q)))
            :: !queue
        | [ stmt ] ->
          span ~req "sql.classify" (fun () -> ignore (Sql.Confluence.classify cat stmt));
          queue :=
            (req, fun () -> span ~req "system.exec_write" (fun () -> System.exec sys session stmt))
            :: !queue
        | _ -> failwith ("replay: not one statement: " ^ sql));
    if List.length !queue >= batch then flush_batch ()
  in
  let req = ref 0 in
  let next_req () = incr req; !req in
  List.iteri
    (fun i (sql, _) -> replay_sql ~req:(next_req ()) ~conn:(i land 1) ~cls:Gen.Entangled sql)
    setup.parked;
  flush_batch ();
  let t_stream = Clock.now () in
  let stream = Gen.stream w ~seed in
  for _ = 1 to ops do
    let op = Gen.next stream in
    replay_sql ~req:(next_req ()) ~conn:op.conn ~cls:(Gen.cls op.kind) op.sql
  done;
  flush_batch ();
  let stream_s = Clock.now () -. t_stream in
  List.iter (fun sql -> replay_sql ~req:(next_req ()) ~conn:0 ~cls:Gen.Read sql) checks;
  Relational.Database.close db;
  remove_wal wal;
  { self_ns = Spans.by_name (Spans.spans sp); stream_s; stream_ops = ops;
    reads = !reads; rows_examined = !rows }

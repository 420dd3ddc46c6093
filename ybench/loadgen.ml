(* The load generator: one thread driving the server over at most two
   pipelined connections, checking every answer as it arrives.

   Three ways of sending share one bookkeeping core: [pipeline] for set-up
   statements, [closed_loop] (a fixed window of requests per connection,
   for warm-up and the capacity phase) and [open_loop] (arrivals on a fixed
   schedule; latency runs from the moment a request was due, so a stalled
   generator shows up as latency as well as lateness). *)

module Wire = Net.Wire

type phase = Warm | Capacity | Open

type status = Pending | Ok | Failed

type record = {
  op : Gen.op;
  phase : phase;
  due : float;
  mutable status : status;
}

(* A group member's answer.  The member that closes a group gets it twice,
   inline and as a push with the same query id (docs/PROTOCOL.md, "Push
   semantics"); that echo is one answer, a different query id a second. *)
type member = {
  mutable answers : int;
  mutable qid : int;
  mutable fno : int;
  mutable at : float;  (** first delivery *)
}

type group = {
  size : int;
  dest : int;
  members : member array;
  mutable sent : int;
  mutable last_due : float;  (** due time of the arrival completing it *)
  mutable last_phase : phase;
}

type t = {
  w : Gen.workload;
  stream : Gen.stream;
  conns : Conn.t array;
  mutable held : Gen.op option;  (** drawn but not yet sent (window full) *)
  inflight : (int, record) Hashtbl.t;
  setup_checks : (int, Wire.response -> bool) Hashtbl.t;
  mutable next_id : int;
  groups : (int, group) Hashtbl.t;
  flights : (int, int) Hashtbl.t;  (** fno -> destination index *)
  mutable attempted : int;  (** stream ops sent in the measured phases *)
  mutable writes : int;  (** of those, the ones the server batches *)
  mutable failed : int;
  mutable failures : string list;
  mutable violations : string list;
  (* what the final SELECTs must agree with: [acked, sent - errored] *)
  mutable ins_sent : int;
  mutable ins_acked : int;
  mutable ins_errored : int;
  cnt_lo : int array;
  cnt_hi : int array;
  mutable flights_sent : int;
  mutable flights_acked : int;
  mutable flights_errored : int;
  (* samples, µs *)
  read_lat : Stat.Series.t;
  write_lat : Stat.Series.t;
  park_lat : Stat.Series.t;
  coord_lat : Stat.Series.t;
  late : Stat.Buf.t;
  all_lat : Stat.Series.t;  (** every open-loop request, to its own response *)
  cap_done : Stat.Buf.t;  (** completion times of correct capacity-phase ops *)
  mutable open_sent : int;
  mutable open_backlog : int;  (** due but unsent when the open loop ended *)
}

let create w ~seed conns =
  let flights = Hashtbl.create 1024 in
  for dest = 0 to Gen.dests - 1 do
    for j = 0 to Gen.flights_per_dest - 1 do
      Hashtbl.replace flights (Gen.initial_fno ~dest ~j) dest
    done
  done;
  {
    w;
    stream = Gen.stream w ~seed;
    conns;
    held = None;
    inflight = Hashtbl.create 1024;
    setup_checks = Hashtbl.create 1024;
    next_id = 1;
    groups = Hashtbl.create 4096;
    flights;
    attempted = 0;
    writes = 0;
    failed = 0;
    failures = [];
    violations = [];
    ins_sent = 0;
    ins_acked = 0;
    ins_errored = 0;
    cnt_lo = Array.make Gen.cnt_keys 0;
    cnt_hi = Array.make Gen.cnt_keys 0;
    flights_sent = 0;
    flights_acked = 0;
    flights_errored = 0;
    read_lat = Stat.Series.create ();
    write_lat = Stat.Series.create ();
    park_lat = Stat.Series.create ();
    coord_lat = Stat.Series.create ();
    late = Stat.Buf.create ();
    all_lat = Stat.Series.create ();
    cap_done = Stat.Buf.create ();
    open_sent = 0;
    open_backlog = 0;
  }

let keep_first msg l = if List.length l < 20 then msg :: l else l
let violation t msg = t.violations <- keep_first msg t.violations

let fail t msg =
  t.failed <- t.failed + 1;
  t.failures <- keep_first msg t.failures

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* ---- coordination answers ---- *)

(* "p<group><a|b|c>" -> (group, member index) *)
let parse_member name =
  let n = String.length name in
  if n >= 3 && name.[0] = 'p' && name.[n - 1] >= 'a' && name.[n - 1] <= 'c' then
    Option.map
      (fun g -> (g, Char.code name.[n - 1] - 97))
      (int_of_string_opt (String.sub name 1 (n - 2)))
  else None

let record_answer t (n : Core.Events.notification) now =
  List.iter
    (fun (rel, (tuple : Relational.Tuple.t)) ->
      match tuple with
      | [| Relational.Value.Str name; Relational.Value.Int fno |]
        when String.lowercase_ascii rel = "flightres" -> (
        match parse_member name with
        | Some (g, idx) -> (
          match Hashtbl.find_opt t.groups g with
          | Some grp when idx < grp.size ->
            let m = grp.members.(idx) in
            if m.answers = 0 then begin
              m.answers <- 1;
              m.qid <- n.Core.Events.query_id;
              m.fno <- fno;
              m.at <- now
            end
            else if m.qid = n.Core.Events.query_id then begin
              if m.fno <> fno then violation t (name ^ " answered with two flights")
            end
            else m.answers <- m.answers + 1
          | _ -> violation t ("answer for a member never sent: " ^ name))
        | None -> violation t ("backlog query answered: " ^ name))
      | _ -> violation t ("unexpected answer tuple in " ^ rel))
    n.Core.Events.answers

(* ---- sending and completing stream ops ---- *)

let note_sent t (r : record) =
  match r.op.kind with
  | Gen.Insert _ -> t.ins_sent <- t.ins_sent + 1
  | Gen.Counter { key; k } -> t.cnt_hi.(key) <- t.cnt_hi.(key) + k
  | Gen.Range a ->
    for key = a to a + Gen.range_width - 1 do
      t.cnt_hi.(key) <- t.cnt_hi.(key) + 1
    done
  | Gen.Flight { fno; dest } ->
    Hashtbl.replace t.flights fno dest;
    t.flights_sent <- t.flights_sent + 1
  | Gen.Member { group; size; dest; _ } ->
    let grp =
      match Hashtbl.find_opt t.groups group with
      | Some g -> g
      | None ->
        let g =
          { size; dest;
            members = Array.init size (fun _ -> { answers = 0; qid = -1; fno = 0; at = nan });
            sent = 0; last_due = nan; last_phase = r.phase }
        in
        Hashtbl.add t.groups group g;
        g
    in
    grp.sent <- grp.sent + 1;
    grp.last_due <- r.due;
    grp.last_phase <- r.phase
  | Gen.Point _ -> ()

let note_acked t (r : record) =
  match r.op.kind with
  | Gen.Insert _ -> t.ins_acked <- t.ins_acked + 1
  | Gen.Counter { key; k } -> t.cnt_lo.(key) <- t.cnt_lo.(key) + k
  | Gen.Range a ->
    for key = a to a + Gen.range_width - 1 do
      t.cnt_lo.(key) <- t.cnt_lo.(key) + 1
    done
  | Gen.Flight _ -> t.flights_acked <- t.flights_acked + 1
  | _ -> ()

(* an error answer means the statement did not commit *)
let note_errored t (r : record) =
  match r.op.kind with
  | Gen.Insert _ -> t.ins_errored <- t.ins_errored + 1
  | Gen.Counter { key; k } -> t.cnt_hi.(key) <- t.cnt_hi.(key) - k
  | Gen.Range a ->
    for key = a to a + Gen.range_width - 1 do
      t.cnt_hi.(key) <- t.cnt_hi.(key) - 1
    done
  | Gen.Flight _ -> t.flights_errored <- t.flights_errored + 1
  | _ -> ()

let latency_buf t (r : record) =
  match Gen.cls r.op.kind with
  | Gen.Read -> t.read_lat
  | Gen.Write -> t.write_lat
  | Gen.Entangled -> t.park_lat

(* open-loop latency from the due time; a failed op misses every limit *)
let record_latency t (r : record) now =
  let us = if r.status = Failed then infinity else (now -. r.due) *. 1e6 in
  Stat.Series.add (latency_buf t r) ~at:r.due us;
  Stat.Series.add t.all_lat ~at:r.due us

let complete t (r : record) resp now =
  let expected_body = function
    | Wire.Sql_result s -> (
      match Gen.expected_read r.op.kind, Gen.expected_affected r.op.kind with
      | Some e, _ -> s = e
      | None, Some n -> s = Printf.sprintf "%d row(s) affected" n
      | None, None -> false)
    | Wire.Registered _ -> Gen.cls r.op.kind = Gen.Entangled
    | Wire.Answered n ->
      record_answer t n now;
      Gen.cls r.op.kind = Gen.Entangled
    | _ -> false
  in
  (match resp with
  | Wire.Result { body; _ } when expected_body body ->
    r.status <- Ok;
    note_acked t r
  | Wire.Error { message; _ } ->
    r.status <- Failed;
    note_errored t r;
    fail t (Printf.sprintf "op %d (%s): error %s" r.op.seq r.op.sql message)
  | _ ->
    r.status <- Failed;
    fail t (Printf.sprintf "op %d: wrong answer" r.op.seq);
    violation t (Printf.sprintf "wrong answer to op %d: %s" r.op.seq r.op.sql));
  match r.phase with
  | Open -> record_latency t r now
  | Capacity -> if r.status = Ok then Stat.Buf.add t.cap_done now
  | Warm -> ()

let handle t resp =
  let now = Clock.now () in
  match resp with
  | Wire.Push n -> record_answer t n now
  | _ -> (
    match Conn.response_id resp with
    | None -> violation t "unsolicited response"
    | Some id -> (
      match Hashtbl.find_opt t.inflight id with
      | Some r ->
        Hashtbl.remove t.inflight id;
        complete t r resp now
      | None -> (
        match Hashtbl.find_opt t.setup_checks id with
        | Some check ->
          Hashtbl.remove t.setup_checks id;
          if not (check resp) then
            violation t (Printf.sprintf "set-up statement %d failed" id)
        | None -> violation t (Printf.sprintf "response to unknown id %d" id))))

let poll t ~timeout = Conn.poll (Array.to_list t.conns) ~timeout (fun _ -> handle t)

let next_op t =
  match t.held with
  | Some op ->
    t.held <- None;
    op
  | None -> Gen.next t.stream

let send_op t (op : Gen.op) ~phase ~due =
  let id = fresh_id t in
  let r = { op; phase; due; status = Pending } in
  Hashtbl.replace t.inflight id r;
  note_sent t r;
  if phase <> Warm then begin
    t.attempted <- t.attempted + 1;
    if Gen.cls op.kind <> Gen.Read then t.writes <- t.writes + 1
  end;
  Conn.send t.conns.(op.conn) (Wire.Submit { id; sql = op.sql })

(* ---- set-up ---- *)

let affected n = function
  | Wire.Result { body = Wire.Sql_result s; _ } ->
    s = Printf.sprintf "%d row(s) affected" n
  | _ -> false

let registered = function
  | Wire.Result { body = Wire.Registered _; _ } -> true
  | _ -> false

(** Send [items] (connection, SQL, check) with at most [window] requests
    in flight per connection and wait for every answer. *)
let pipeline ?(window = 32) t items =
  List.iter
    (fun (c, sql, check) ->
      while t.conns.(c).Conn.inflight >= window do poll t ~timeout:0.05 done;
      let id = fresh_id t in
      Hashtbl.replace t.setup_checks id check;
      Conn.send t.conns.(c) (Wire.Submit { id; sql }))
    items;
  let deadline = Clock.now () +. 120. in
  while Hashtbl.length t.setup_checks > 0 && Clock.now () < deadline do
    poll t ~timeout:0.05
  done;
  if Hashtbl.length t.setup_checks > 0 then
    violation t "set-up statements never answered"

let run_setup t (s : Gen.setup) =
  let ok = function Wire.Result _ -> true | _ -> false in
  List.iter (fun sql -> pipeline t [ (0, sql, ok) ]) s.ddl;
  pipeline t (List.mapi (fun i (sql, n) -> (i land 1, sql, affected n)) s.load);
  pipeline t (List.mapi (fun i (sql, _) -> (i land 1, sql, registered)) s.parked)

(* ---- load phases ---- *)

let fully_sent_unanswered t =
  Hashtbl.fold
    (fun _ g acc ->
      if g.sent = g.size && Array.exists (fun m -> m.answers = 0) g.members then acc + 1
      else acc)
    t.groups 0

(** Wait until every request is answered and every fully submitted group
    has delivered all its answers, or [timeout] seconds pass. *)
let drain t ~timeout =
  let deadline = Clock.now () +. timeout in
  let busy () = Hashtbl.length t.inflight > 0 || fully_sent_unanswered t > 0 in
  while busy () && Clock.now () < deadline do
    poll t ~timeout:0.01
  done

(** Closed loop: keep [window] requests in flight per connection until
    [until] or until [max_ops] ops were sent. *)
let closed_loop t ~phase ~window ~until ~max_ops =
  let sent = ref 0 in
  while Clock.now () < until && !sent < max_ops do
    let room = ref true in
    while !room && !sent < max_ops do
      let op = next_op t in
      if t.conns.(op.conn).Conn.inflight < window then begin
        send_op t op ~phase ~due:(Clock.now ());
        incr sent
      end
      else begin
        t.held <- Some op;
        room := false
      end
    done;
    poll t ~timeout:(Float.min 0.01 (until -. Clock.now ()))
  done

(** Open loop at [rate] arrivals/s for [dur] seconds.  At most
    [max_window] requests stay in flight per connection (the server's
    per-connection limit); an arrival that finds its connection full waits,
    and that wait counts as lateness and as latency. *)
let open_loop t ~rate ~dur ~max_window =
  let t0 = Clock.now () +. 0.001 in
  let t_end = t0 +. dur in
  let i = ref 0 in
  let due k = t0 +. (float_of_int k /. rate) in
  while Clock.now () < t_end do
    let continue = ref true in
    while !continue do
      let now = Clock.now () in
      let d = due !i in
      if d > now || d >= t_end then continue := false
      else begin
        let op = next_op t in
        if t.conns.(op.conn).Conn.inflight < max_window then begin
          send_op t op ~phase:Open ~due:d;
          Stat.Buf.add t.late ((now -. d) *. 1e6);
          incr i
        end
        else begin
          t.held <- Some op;
          continue := false
        end
      end
    done;
    let now = Clock.now () in
    let wait = Float.min (due !i -. now) (t_end -. now) in
    poll t ~timeout:(Float.max wait 0.0002)
  done;
  t.open_sent <- !i;
  t.open_backlog <- int_of_float (dur *. rate) - !i

(** After the last drain: requests never answered are failures (their
    latency runs until now), as are members of fully submitted groups that
    never got an answer; group outcomes are checked. *)
let settle t =
  let now = Clock.now () in
  Hashtbl.iter
    (fun _ (r : record) ->
      fail t (Printf.sprintf "op %d never answered" r.op.seq);
      r.status <- Failed;
      if r.phase = Open then record_latency t r now)
    t.inflight;
  Hashtbl.reset t.inflight;
  Hashtbl.iter
    (fun gid g ->
      let answered = Array.for_all (fun m -> m.answers = 1) g.members in
      Array.iteri
        (fun idx m ->
          let name = Gen.member_name ~group:gid ~idx in
          if m.answers > 1 then violation t (name ^ " answered more than once");
          if g.sent < g.size && m.answers > 0 then
            violation t (name ^ " answered before its whole group arrived");
          if g.sent = g.size && m.answers = 0 then fail t (name ^ " never got its answer"))
        g.members;
      if g.sent = g.size && answered then begin
        let fno = g.members.(0).fno in
        if Array.exists (fun m -> m.fno <> fno) g.members then
          violation t (Printf.sprintf "group %d split across flights" gid);
        if Hashtbl.find_opt t.flights fno <> Some g.dest then
          violation t
            (Printf.sprintf "group %d got flight %d, not one to %s" gid fno
               (Gen.dest_name g.dest));
        if g.last_phase = Open then
          let last = Array.fold_left (fun acc m -> Float.max acc m.at) neg_infinity g.members in
          Stat.Series.add t.coord_lat ~at:g.last_due ((last -. g.last_due) *. 1e6)
      end)
    t.groups

(* ---- final state checks ---- *)

let query t sql =
  let id = fresh_id t in
  match Conn.call ~other:(handle t) t.conns.(0) (Wire.Submit { id; sql }) with
  | Wire.Result { body = Wire.Sql_result s; _ } -> s
  | _ -> failwith ("final check query failed: " ^ sql)

(* rows of a result listing: "(a, b)" lines, fields unquoted *)
let rows body =
  String.split_on_char '\n' body
  |> List.filter (fun l ->
         String.length l > 1 && l.[0] = '(' && not (String.ends_with ~suffix:"row(s))" l))
  |> List.map (fun l ->
         String.sub l 1 (String.length l - 2)
         |> String.split_on_char ','
         |> List.map (fun f ->
                let f = String.trim f in
                let n = String.length f in
                if n >= 2 && f.[0] = '\'' then String.sub f 1 (n - 2) else f))

let count t sql =
  match rows (query t sql) with
  | [ [ n ] ] -> int_of_string n
  | _ -> failwith ("unexpected COUNT result for " ^ sql)

(** The acked-write check: the server's state must agree with every
    acknowledged write, and with nothing the generator did not send. *)
let check_state t ~context =
  let v msg = violation t (context ^ msg) in
  let within what n ~lo ~hi =
    if n < lo || n > hi then v (Printf.sprintf "%s: %d, expected %d..%d" what n lo hi)
  in
  if t.w.Gen.name = "coordinate" then begin
    within "bench flights"
      (count t Gen.q_count_flights)
      ~lo:t.flights_acked ~hi:(t.flights_sent - t.flights_errored);
    let stored = Hashtbl.create 4096 in
    List.iter
      (function
        | [ name; fno ] -> (
          match parse_member name with
          | Some _ -> Hashtbl.replace stored name (int_of_string fno)
          | None -> v ("backlog answer stored for " ^ name))
        | _ -> v "malformed FlightRes row")
      (rows (query t Gen.q_answers));
    let delivered = ref 0 in
    Hashtbl.iter
      (fun gid g ->
        Array.iteri
          (fun idx m ->
            if m.answers > 0 then begin
              incr delivered;
              let name = Gen.member_name ~group:gid ~idx in
              if Hashtbl.find_opt stored name <> Some m.fno then
                v ("delivered answer not stored: " ^ name)
            end)
          g.members)
      t.groups;
    if Hashtbl.length stored <> !delivered then
      v (Printf.sprintf "%d answers stored, %d delivered" (Hashtbl.length stored) !delivered)
  end
  else begin
    within "Ins rows" (count t Gen.q_count_ins)
      ~lo:t.ins_acked ~hi:(t.ins_sent - t.ins_errored);
    let seen = ref 0 in
    List.iter
      (function
        | [ id; value ] ->
          let id = int_of_string id and value = int_of_string value in
          incr seen;
          if id >= 0 && id < Gen.cnt_keys then
            within (Printf.sprintf "Cnt[%d]" id) value ~lo:t.cnt_lo.(id) ~hi:t.cnt_hi.(id)
          else v (Printf.sprintf "unexpected Cnt key %d" id)
        | _ -> v "malformed Cnt row")
      (rows (query t Gen.q_cnt));
    if !seen <> Gen.cnt_keys then v (Printf.sprintf "%d Cnt rows, expected %d" !seen Gen.cnt_keys);
    let sum = Array.fold_left ( + ) 0 in
    within "sum of Cnt.v"
      (count t Gen.q_sum)
      ~lo:(sum t.cnt_lo) ~hi:(sum t.cnt_hi)
  end

(* Self-tests of the benchmark's own machinery: seeded streams, order
   statistics, span arithmetic, and open-loop timing.  Runs under
   [dune test] in a second or two; needs no server binary. *)

open Ybench
module Wire = Net.Wire

let checks = ref 0

let check name cond =
  incr checks;
  if not cond then begin
    Printf.printf "FAIL: %s\n%!" name;
    exit 1
  end

(* ---- seeded op streams ---- *)

let stream_bytes w seed =
  let b = Buffer.create 65536 in
  List.iter
    (fun (op : Gen.op) -> Printf.bprintf b "%d|%d|%s\n" op.seq op.conn op.sql)
    (Gen.take w ~seed 5000);
  Buffer.contents b

let test_streams () =
  List.iter
    (fun (w : Gen.workload) ->
      let a = stream_bytes w 42 and b = stream_bytes w 42 and c = stream_bytes w 43 in
      check (w.name ^ ": same seed, byte-identical stream") (String.equal a b);
      check (w.name ^ ": other seed, other stream") (not (String.equal a c));
      check (w.name ^ ": set-up is seed-free and stable") (Gen.setup w = Gen.setup w))
    Gen.workloads;
  (* every group member of a coordinate stream arrives, on alternating
     connections, within the seeded gap *)
  let w = Option.get (Gen.find "coordinate") in
  let seen = Hashtbl.create 64 in
  let alternates = ref true in
  List.iter
    (fun (op : Gen.op) ->
      match op.kind with
      | Gen.Member { group; idx; _ } ->
        alternates := !alternates && op.conn = (group + idx) land 1;
        Hashtbl.replace seen (group, idx) op.seq
      | _ -> ())
    (Gen.take w ~seed:7 5000);
  check "members of a group alternate connections" !alternates;
  check "every member follows its group's first"
    (Hashtbl.fold
       (fun (group, idx) seq ok ->
         ok
         && (idx = 0
            ||
            match Hashtbl.find_opt seen (group, 0) with
            | Some first -> seq > first
            | None -> false))
       seen true)

(* ---- order statistics ---- *)

let test_stats () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check "p50 of 1..100" (Stat.percentile xs 50. = 50.);
  check "p99 of 1..100" (Stat.percentile xs 99. = 99.);
  check "p100 of 1..100" (Stat.percentile xs 100. = 100.);
  check "p0 clamps to the minimum" (Stat.percentile xs 0. = 1.);
  check "percentile ignores order" (Stat.percentile [| 3.; 1.; 2. |] 50. = 2.);
  check "empty percentile is nan" (Float.is_nan (Stat.percentile [||] 50.));
  let blocks = Stat.rate_blocks [| 0.; 0.5; 1.0; 1.5; 2.0; 3.0 |] ~k:2 in
  check "rate blocks" (blocks = [| 2.; 2. |]);
  let s = Stat.Series.create () in
  for i = 0 to 99 do
    (* window 0 fast, window 1 slow *)
    Stat.Series.add s ~at:(float_of_int i /. 100.) (if i < 50 then 1. else 10.)
  done;
  check "window percentiles"
    (Stat.Series.window_percentiles s ~width:0.5 50. = [| 1.; 10. |]);
  check "lower quartile across windows" (Stat.Series.windowed s ~width:0.5 ~q:25. 50. = 1.)

(* ---- span self time ---- *)

let test_spans () =
  let sp = Spans.create ~enabled:true in
  let mk name s e parent = Spans.add sp { Spans.name; start_ns = s; end_ns = e; parent; req = 1 } in
  let root = mk "root" 0 100 (-1) in
  let a = mk "a" 10 40 root in
  let _b = mk "b" 30 60 root in  (* overlaps a: the union 10..60 counts once *)
  let _g = mk "g" 15 20 a in
  let _late = mk "late" 90 130 root in  (* sticks out: only 90..100 is covered *)
  let self = Spans.self_times (Spans.spans sp) in
  check "root self = 100 - |10..60 u 90..100|" (self.(0) = 40);
  check "child self = 30 - grandchild" (self.(1) = 25);
  check "child without children" (self.(2) = 30 && self.(3) = 5 && self.(4) = 40);
  (* spans recorded by nesting calls get parents from the call stack *)
  let sp = Spans.create ~enabled:true in
  Spans.record sp ~req:7 "outer" (fun () ->
      Spans.record sp ~req:7 "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  let spans = Spans.spans sp in
  check "nested record" (Array.length spans = 2 && spans.(1).Spans.parent = 0 && spans.(0).parent = -1);
  check "inner within outer"
    (spans.(1).start_ns >= spans.(0).start_ns && spans.(1).end_ns <= spans.(0).end_ns);
  let off = Spans.create ~enabled:false in
  check "disabled recorder records nothing"
    (Spans.record off ~req:1 "x" (fun () -> 5) = 5 && Spans.spans off = [||])

(* ---- open-loop timing ---- *)

(* A stand-in server answering every SUBMIT correctly after [delay]
   seconds, one request at a time per connection. *)
let fake_server ~delay =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 4;
  let port = match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let serve fd =
    try
      while true do
        match Wire.decode_request (Wire.read_frame fd) with
        | Wire.Hello { version; _ } ->
          Wire.write_frame fd (Wire.encode_response (Wire.Welcome { version; banner = "fake" }))
        | Wire.Submit { id; sql } ->
          Thread.delay delay;
          let has s sub =
            let n = String.length sub in
            let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          let rows = if has sql "BETWEEN" then Gen.range_width else 1 in
          Wire.write_frame fd
            (Wire.encode_response
               (Wire.Result
                  { id; body = Wire.Sql_result (Printf.sprintf "%d row(s) affected" rows) }))
        | _ -> ()
      done
    with _ -> ( try Unix.close fd with _ -> ())
  in
  ignore
    (Thread.create
       (fun () ->
         for _ = 1 to 2 do
           let fd, _ = Unix.accept sock in
           ignore (Thread.create serve fd)
         done)
       ());
  port

let test_open_loop () =
  let delay = 0.005 in
  let port = fake_server ~delay in
  let w = Option.get (Gen.find "write_fsync") in
  let conns = Array.init 2 (fun i -> Conn.connect ~port ~user:(Printf.sprintf "c%d" i)) in
  let lg = Loadgen.create w ~seed:1 conns in
  (* 1000 arrivals/s but one request in flight per connection and 5 ms per
     answer: the generator stalls behind its own window *)
  Loadgen.open_loop lg ~rate:1000. ~dur:0.3 ~max_window:1;
  Loadgen.drain lg ~timeout:5.;
  Loadgen.settle lg;
  let lat = Stat.Series.values lg.write_lat and late = Stat.Buf.to_array lg.late in
  check "open loop: all answers correct" (lg.violations = [] && lg.failed = 0);
  check "open loop: requests were sent" (Array.length lat > 10);
  check "stall shows as lateness" (Stat.percentile late 99. > 30_000.);
  (* latency runs from the due time, so it covers the lateness as well as
     the answer's own delay *)
  check "stall shows as latency"
    (Stat.percentile lat 99. >= Stat.percentile late 99. +. (delay *. 1e6 *. 0.9));
  check "behind schedule is reported" (lg.open_backlog > 0);
  Array.iter Conn.close conns

let () =
  test_streams ();
  test_stats ();
  test_spans ();
  test_open_loop ();
  Printf.printf "ybench selftest: %d checks passed\n" !checks

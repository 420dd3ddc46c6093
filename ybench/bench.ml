(* The benchmark's command: one workload, one seed, one run.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Run from the root of a built checkout (see run.py).  Starts the stock
   bin/youtopia_server.exe as a child process, sets it up five times (the
   median is setup_s), drives the last one through an open-loop phase at
   the workload's fixed rate and a closed-loop capacity phase over a fixed
   amount of work, checks every answer and the final state, SIGKILLs and restarts the server on the same
   WAL and checks the acked writes again.  With --trace 1 it also replays
   the same inputs in-process, with and without spans, and reports the
   per-layer metrics instead of the end-to-end ones.  The last line of
   stdout is the JSON result. *)

open Ybench

let server_exe = "_build/default/bin/youtopia_server.exe"
let setups = 5
let warmup_ops = 1000
let replay_ops = 10000
let window = 32  (* closed-loop requests in flight per connection *)
let max_window = 64  (* the server's default max_in_flight *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match Gen.find !workload with
  | Some w when !seconds > 0 && (!trace = 0 || !trace = 1) -> (w, !seed, !seconds, !trace = 1)
  | _ -> usage ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let clean_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)

(* ---- host calibration ---- *)

let cpu_calib_ns () =
  let once () =
    let t0 = Clock.now_ns () in
    let x = ref 1 in
    for i = 1 to 1_000_000 do
      x := ((!x * 31) + i) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !x);
    float_of_int (Clock.now_ns () - t0)
  in
  Stat.median (Array.init 7 (fun _ -> once ()))

let fsync_us dir =
  let path = Filename.concat dir "fsync.probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let block = Bytes.make 4096 'x' in
  let samples =
    Array.init 30 (fun _ ->
        let t0 = Clock.now () in
        ignore (Unix.write fd block 0 4096);
        Unix.fsync fd;
        (Clock.now () -. t0) *. 1e6)
  in
  Unix.close fd;
  Sys.remove path;
  Stat.median samples

(* ---- one server life ---- *)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let start_server w ~dir ~wal =
  Srvproc.spawn ~exe:server_exe
    ~args:("--port" :: "0" :: Gen.server_flags w ~wal)
    ~log:(Filename.concat dir "server.log")

let connect srv =
  Array.init 2 (fun i -> Conn.connect ~port:srv.Srvproc.port ~user:(Printf.sprintf "c%d" i))

(** Spawn, load, park the backlog, warm up: returns the server, the
    generator positioned after warm-up, and the seconds it took. *)
let setup_once w ~seed ~dir ~wal =
  clean_dir dir;
  let t0 = Clock.now () in
  let srv = start_server w ~dir ~wal in
  let lg = Loadgen.create w ~seed (connect srv) in
  Loadgen.run_setup lg (Gen.setup w);
  Loadgen.closed_loop lg ~phase:Loadgen.Warm ~window ~until:infinity ~max_ops:warmup_ops;
  Loadgen.drain lg ~timeout:30.;
  (srv, lg, Clock.now () -. t0)

let main () =
  (* a terminated run still stops its servers (at_exit in Srvproc) *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let w, seed, seconds, traced = parse_args () in
  if not (Sys.file_exists server_exe) then begin
    prerr_endline ("missing " ^ server_exe ^ ": build the checkout first (run.py does)");
    exit 2
  end;
  let dir = Filename.concat "ybench/_run" w.Gen.name in
  mkdir_p dir;
  let wal = Filename.concat dir "wal" in
  let cpu_calib = cpu_calib_ns () in
  let fsync = fsync_us dir in
  (* set up [setups] times; measure on the last *)
  let rec setup_rounds k times =
    let srv, lg, dt = setup_once w ~seed ~dir ~wal in
    if k < setups then begin
      Array.iter Conn.close lg.Loadgen.conns;
      Srvproc.kill srv;
      setup_rounds (k + 1) (dt :: times)
    end
    else (srv, lg, Array.of_list (dt :: times))
  in
  let srv, lg, setup_times = setup_rounds 1 [] in
  let other = Loadgen.handle lg in
  let a0 = Counters.scrape ~other lg.conns.(0) ~id:1_000_000_000 in
  let wal0 = file_size wal in
  (* latency: open loop at the fixed rate, first, on a quiet server *)
  let cap_s = 0.4 *. float_of_int seconds in
  let open_s = float_of_int seconds -. cap_s in
  let cpu0 = Srvproc.cpu_seconds srv in
  let host0 = Srvproc.host_ticks () in
  Loadgen.open_loop lg ~rate:w.rate ~dur:open_s ~max_window;
  let cpu1 = Srvproc.cpu_seconds srv in
  let steal_frac =
    let h1 = Srvproc.host_ticks () in
    let d = Array.mapi (fun i x -> x - host0.(i)) h1 in
    if Array.length d > 7 then
      float_of_int d.(7) /. float_of_int (max 1 (Array.fold_left ( + ) 0 d))
    else nan
  in
  Loadgen.drain lg ~timeout:10.;
  let a_open = Counters.scrape ~other lg.conns.(0) ~id:1_000_000_004 in
  (* capacity: closed loop over a fixed amount of work *)
  let t_cap = Clock.now () in
  let cpu_cap0 = Srvproc.cpu_seconds srv and ops_cap0 = lg.attempted in
  Loadgen.closed_loop lg ~phase:Loadgen.Capacity ~window ~until:(t_cap +. (3. *. cap_s))
    ~max_ops:(int_of_float (w.capacity *. cap_s));
  (* throughput per block of about 0.5 s of expected work *)
  let cap_rates =
    Stat.rate_blocks (Stat.Buf.to_array lg.cap_done)
      ~k:(max 100 (int_of_float (w.capacity *. 0.5)))
  in
  Loadgen.drain lg ~timeout:10.;
  let cpu_per_op_cap =
    (Srvproc.cpu_seconds srv -. cpu_cap0) *. 1e6 /. float_of_int (lg.attempted - ops_cap0)
  in
  Loadgen.settle lg;
  let a1 = Counters.scrape ~other lg.conns.(0) ~id:1_000_000_002 in
  let rss = Srvproc.peak_rss_mb srv in
  let wal1 = file_size wal in
  Loadgen.check_state lg ~context:"";
  (* recovery: SIGKILL, restart on the same WAL, check the acked writes *)
  Array.iter Conn.close lg.conns;
  Srvproc.kill srv;
  let t_rec = Clock.now () in
  let srv = start_server w ~dir ~wal in
  let recovery_s = Clock.now () -. t_rec in
  Array.blit (connect srv) 0 lg.conns 0 2;
  Loadgen.check_state lg ~context:"after restart: ";
  Array.iter Conn.close lg.conns;
  Srvproc.kill srv;
  (* ---- end-to-end ---- *)
  let arr = Stat.Buf.to_array in
  (* Latency percentiles are taken per 0.5-s window of the open loop and
     reported as their lower quartile across windows; capacity likewise as
     the upper quartile of per-block rates.  CPU steal on a shared host
     only ever adds latency and removes throughput, so these read the least
     disturbed windows; host.steal_frac reports how much there was. *)
  let lat b p = Stat.Series.windowed b ~width:0.5 ~q:25. p in
  let p50 b = lat b 50. and p99 b = lat b 99. in
  let windows b p =
    String.concat " "
      (List.map (Printf.sprintf "%.0f")
         (Array.to_list (Stat.Series.window_percentiles b ~width:0.5 p)))
  in
  let headline =
    match w.name with
    | "write_fsync" -> lg.write_lat
    | "read_mostly" -> lg.read_lat
    | _ -> lg.coord_lat
  in
  let n_note b = Printf.sprintf "n=%d" (Stat.Series.length b) in
  let open_ops = float_of_int lg.open_sent in
  let capacity = Stat.percentile cap_rates 75. in
  let capacity_note =
    Printf.sprintf "%d in flight x 2 conns; blocks: %s" window
      (String.concat " " (List.map (Printf.sprintf "%.0f") (Array.to_list cap_rates)))
  in
  (* gated: the figures CPU steal from neighbours cannot move (server CPU
     time over a fixed amount of work, memory) and set-up time *)
  let e2e =
    Report.
      [
        metric "setup_s" "s" (Stat.median setup_times)
          ~note:(String.concat " " (List.map (Printf.sprintf "%.3f") (Array.to_list setup_times)));
        metric "server_cpu_us_per_op" "us" cpu_per_op_cap ~note:"closed-loop phase";
        metric "server_peak_rss_mb" "MB" rss;
      ]
  in
  let by_type =
    List.concat_map
      (fun (prefix, b) ->
        if Stat.Series.length b = 0 then []
        else
          Report.
            [ metric (prefix ^ "_p50_us") "us" (p50 b) ~note:(n_note b);
              metric (prefix ^ "_p99_us") "us" (p99 b) ~note:(n_note b) ])
      [ ("read", lg.read_lat); ("write", lg.write_lat); ("park", lg.park_lat);
        ("coord", lg.coord_lat) ]
  in
  let fail_frac = float_of_int lg.failed /. float_of_int (max 1 lg.attempted) in
  Printf.printf "ybench %s seed=%d seconds=%d rate=%.0f ops/s durability=%s\n"
    w.name seed seconds w.rate w.durability;
  Report.print_lines "end-to-end (untraced wire run)" e2e;
  Report.print_lines "end-to-end, not gated (wall-clock figures move with CPU steal)"
    (Report.
       [
         metric "capacity_ops_s" "ops/s" capacity ~note:capacity_note;
         metric "p50_us" "us" (p50 headline)
           ~note:(n_note headline ^ " windows: " ^ windows headline 50.);
         metric "p99_us" "us" (p99 headline)
           ~note:(n_note headline ^ " windows: " ^ windows headline 99.);
         metric "open_loop_cpu_us_per_op" "us" ((cpu1 -. cpu0) *. 1e6 /. open_ops);
         metric "host.steal_frac" "fraction" steal_frac ~note:"during the open loop";
       ]
    @ by_type
    @ [ Report.metric "fail_frac" "fraction" fail_frac
          ~note:(Printf.sprintf "%d of %d" lg.failed lg.attempted) ]);
  let max_backlog = max 16 (int_of_float (w.rate *. 0.05)) in
  if lg.open_backlog > max_backlog then begin
    Printf.eprintf
      "invalid run: the generator fell %d arrivals behind its schedule (limit %d); \
       the server cannot sustain %.0f ops/s here\n"
      lg.open_backlog max_backlog w.rate;
    exit 3
  end;
  (* ---- per-layer ---- *)
  let layer_metrics =
    if not traced then []
    else begin
      let d k = Counters.delta ~before:a0 ~after:a1 k in
      let per a b = if b = 0. then 0. else a /. b in
      let ops = float_of_int lg.attempted and writes = float_of_int lg.writes in
      let batch_mean = per (d "batched_requests") (d "batches") in
      let replay ~traced =
        Replay.run w ~seed ~ops:(warmup_ops + replay_ops)
          ~batch:(max 1 (int_of_float (Float.round batch_mean)))
          ~wal:(Filename.concat dir "replay.wal") ~checks:(Gen.check_queries w) ~traced
      in
      (* untraced replays on both sides of the traced one, so warm-up order
         does not pass for tracing overhead *)
      let plain1 = replay ~traced:false in
      let r = replay ~traced:true in
      let plain2 = replay ~traced:false in
      let plain_s = (plain1.Replay.stream_s +. plain2.Replay.stream_s) /. 2. in
      let self name =
        match Hashtbl.find_opt r.Replay.self_ns name with
        | Some b -> arr b
        | None -> [||]
      in
      let med name = Stat.median (self name) in
      let t_metric name span unit_ scale =
        let s = self span in
        Report.metric name unit_ (Stat.median s *. scale)
          ~note:
            (Printf.sprintf "p99=%.0f n=%d" (Stat.percentile s 99. *. scale) (Array.length s))
      in
      (* latency attribution over the open loop only: server-side submit
         latency is a log histogram (p50/p99 read as bucket bounds), so the
         differences below use interval means *)
      let submit_pct p = Counters.hist_percentile ~before:a0 ~after:a_open p in
      let server_mean = Counters.interval_mean ~before:a0 ~after:a_open in
      let client_mean = Stat.mean (Stat.Series.values lg.all_lat) in
      let inproc_us = plain_s *. 1e6 /. float_of_int r.Replay.stream_ops in
      let codec = med "net.codec_req" +. med "net.codec_resp" in
      let pending_end =
        let c k = Counters.num a1 k in
        c "registered_pending" -. c "cancelled" -. (c "answered" -. c "groups_fulfilled")
      in
      Report.
        [
          metric "net.wire_codec_ns" "ns" codec ~note:"request + response, encode + decode";
          metric "net.server_submit_p50_us" "us" (submit_pct 50.) ~note:"bucket upper bound";
          metric "net.server_submit_p99_us" "us" (submit_pct 99.) ~note:"bucket upper bound";
          metric "net.outside_server_us" "us" (client_mean -. server_mean)
            ~note:(Printf.sprintf "client mean %.1f - server mean %.1f" client_mean server_mean);
          metric "net.frames_per_op" "count" (per (d "frames_in" +. d "frames_out") ops);
          metric "net.bytes_per_op" "B" (per (d "bytes_in" +. d "bytes_out") ops);
          metric "net.loop_iterations_per_op" "count" (per (d "loop_iterations") ops);
          metric "net.loop_wakeups_per_op" "count" (per (d "loop_wakeups") ops);
          metric "net.batch_size_mean" "count" batch_mean;
          metric "net.batches_per_write" "count" (per (d "batches") writes);
          metric "net.engine_read_wait_frac" "fraction" (per (d "engine_read_waits") (d "engine_reads"));
          metric "net.engine_write_wait_frac" "fraction" (per (d "engine_write_waits") (d "engine_writes"));
          t_metric "sql.parse_read_ns" "sql.parse_read" "ns" 1.;
          t_metric "sql.parse_write_ns" "sql.parse_write" "ns" 1.;
          t_metric "sql.parse_entangled_ns" "sql.parse_entangled" "ns" 1.;
          t_metric "sql.compile_ns" "sql.compile" "ns" 1.;
          t_metric "sql.classify_ns" "sql.classify" "ns" 1.;
          t_metric "system.exec_read_ns" "system.exec_read" "ns" 1.;
          t_metric "system.exec_write_ns" "system.exec_write" "ns" 1.;
          metric "system.unattributed_us" "us" (server_mean -. inproc_us)
            ~note:(Printf.sprintf "server mean %.1f - in-process %.1f per request" server_mean inproc_us);
          t_metric "core.translate_ns" "core.translate" "ns" 1.;
          t_metric "core.submit_ns" "core.submit" "ns" 1.;
          t_metric "core.poke_ns" "core.poke" "ns" 1.;
          metric "core.retries_per_poke" "count" (per (d "coord_dirty_retries") (d "coord_pokes"))
            ~note:(Printf.sprintf "%.0f retries / %.0f pokes" (d "coord_dirty_retries") (d "coord_pokes"));
          metric "core.tuple_hits_per_probe" "count" (per (d "coord_tuple_hits") (d "coord_tuple_probes"));
          metric "core.fallbacks_per_poke" "count" (per (d "coord_tuple_fallbacks") (d "coord_pokes"));
          metric "core.search_steps_per_submit" "count" (per (d "search_steps") (d "submitted"));
          metric "core.unify_per_submit" "count" (per (d "unify_attempts") (d "submitted"));
          metric "core.groundings_per_submit" "count" (per (d "groundings") (d "submitted"));
          metric "core.budget_exhausted" "count" (d "budget_exhausted");
          metric "core.plan_cache_hit_frac" "fraction"
            (per (d "plan_cache_hits") (d "plan_cache_hits" +. d "plan_cache_misses"));
          metric "core.fulfil_frac" "fraction" (per (d "groups_fulfilled") (d "match_attempts"));
          metric "core.pending_end" "count" pending_end;
          t_metric "relational.wal_sync_ns" "relational.wal_batch" "ns" 1.;
          metric "relational.fsyncs_per_write" "count" (per (d "wal_fsyncs") writes);
          metric "relational.flushes_per_write" "count" (per (d "wal_flushes") writes);
          metric "relational.wal_bytes_per_write" "B" (per (float_of_int (wal1 - wal0)) writes);
          metric "relational.rows_examined_per_read" "count"
            (per (float_of_int r.rows_examined) (float_of_int r.reads))
            ~note:(Printf.sprintf "n=%d" r.reads);
          metric "relational.fastpath_commit_frac" "fraction" (per (d "fastpath_commits") writes);
          metric "relational.latch_waits_per_write" "count" (per (d "latch_waits") writes);
          metric "relational.recovery_s" "s" recovery_s;
          metric "loadgen.capacity_ops_s" "ops/s" capacity ~note:capacity_note;
          metric "loadgen.p50_us" "us" (p50 headline) ~note:(n_note headline);
          metric "loadgen.p99_us" "us" (p99 headline) ~note:(n_note headline);
          metric "loadgen.late_p99_us" "us" (Stat.percentile (arr lg.late) 99.)
            ~note:(Printf.sprintf "n=%d" (Stat.Buf.length lg.late));
          metric "trace.overhead_frac" "fraction"
            ((r.stream_s -. plain_s) /. plain_s)
            ~note:(Printf.sprintf "stream ops traced %.3f s vs untraced %.3f/%.3f s" r.stream_s
                     plain1.stream_s plain2.stream_s);
          metric "host.cpu_calib_ns" "ns" cpu_calib;
          metric "host.fsync_us" "us" fsync;
          metric "host.steal_frac" "fraction" steal_frac ~note:"CPU steal during the open loop";
        ]
    end
  in
  if traced then Report.print_lines "per-layer (traced in-process replay + ADMIN deltas)" layer_metrics;
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) (List.rev lg.violations);
  List.iter (fun f -> Printf.printf "failure: %s\n" f) (List.rev lg.failures);
  let correct = lg.violations = [] in
  print_endline
    (Report.json ~correct ~attempted:lg.attempted ~failed:lg.failed
       (if traced then layer_metrics else e2e));
  exit (if correct then 0 else 1)

let () =
  try main () with
  | e ->
    Printf.eprintf "ybench: %s\n" (Printexc.to_string e);
    exit 2

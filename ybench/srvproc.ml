(* The server under test as a child process: spawn, wait for it to listen,
   read its CPU time and peak RSS from /proc, kill it. *)

type t = { pid : int; port : int }

(* every server still running, so an early exit never leaves one behind *)
let live = ref []

let kill_pid pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter kill_pid !live)

let read_file path =
  match open_in_bin path with
  | ic ->
    (* /proc files report no length: read to EOF *)
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Buffer.contents b
  | exception Sys_error _ -> ""

(* "youtopia server listening on 127.0.0.1:PORT (protocol v2)" *)
let listening_port log =
  let key = "listening on " in
  let kl = String.length key and n = String.length log in
  let rec find i =
    if i + kl > n then None
    else if String.sub log i kl = key then
      match String.index_from_opt log (i + kl) ':' with
      | Some c ->
        let e = ref (c + 1) in
        while !e < n && log.[!e] >= '0' && log.[!e] <= '9' do incr e done;
        int_of_string_opt (String.sub log (c + 1) (!e - c - 1))
      | None -> None
    else find (i + 1)
  in
  find 0

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(** Spawn [exe args], output to [log]; returns once the server prints its
    listening line.  Raises [Failure] if it exits or stays silent. *)
let spawn ~exe ~args ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) devnull out out
  in
  Unix.close out;
  Unix.close devnull;
  live := pid :: !live;
  let deadline = Clock.now () +. 60. in
  let rec wait () =
    match listening_port (read_file log) with
    | Some port -> { pid; port }
    | None ->
      if not (alive pid) then
        failwith ("server exited during start-up:\n" ^ read_file log)
      else if Clock.now () > deadline then begin
        kill_pid pid;
        failwith "server did not start listening within 60 s"
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
  in
  wait ()

let kill t = kill_pid t.pid

(** utime + stime of the server in seconds (/proc/PID/stat fields 14-15,
    in clock ticks of 1/100 s). *)
let cpu_seconds t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  match String.rindex_opt s ')' with
  | None -> nan
  | Some i ->
    let fields =
      String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
    in
    (* after "pid (comm) ": field 3 is index 0, so utime (14) is index 11 *)
    let f k = float_of_string (List.nth fields k) in
    (f 11 +. f 12) /. 100.

(** VmHWM of the server in MB. *)
let peak_rss_mb t =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  match line with
  | None -> nan
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(** The host's aggregate CPU tick counters (the "cpu" line of /proc/stat:
    user nice system idle iowait irq softirq steal ...). *)
let host_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ ->
    String.split_on_char ' ' line
    |> List.filter (fun f -> f <> "" && f <> "cpu")
    |> List.map int_of_string |> Array.of_list
  | [] -> [||]

(* Readiness multiplexing: a poll(2) stub. *)

let readable = 1
let writable = 2
let error = 4

external wait :
  fds:Unix.file_descr array ->
  events:int array ->
  revents:int array ->
  nfds:int ->
  timeout_ms:int ->
  int = "youtopia_poll_wait"

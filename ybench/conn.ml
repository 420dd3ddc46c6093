(* One pipelined client connection speaking the public Net.Wire codec.

   The socket is non-blocking after the handshake: requests are staged in
   an output buffer and flushed as the kernel takes them, responses are
   fed to an incremental decoder.  Nothing here blocks except [call] and
   the handshake, so one thread can drive several connections. *)

module Wire = Net.Wire

type t = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  out : Buffer.t;
  rbuf : Bytes.t;
  mutable inflight : int;  (** requests sent and not yet answered *)
}

let connect ~port ~user =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Wire.write_frame fd
    (Wire.encode_request (Wire.Hello { version = Wire.protocol_version; user }));
  (match Wire.decode_response_kind (Wire.read_frame_kind fd) with
  | Wire.Welcome _ -> ()
  | _ -> failwith "server did not answer HELLO with WELCOME");
  Unix.set_nonblock fd;
  {
    fd;
    dec = Wire.Decoder.create ~max_frame:(64 * 1024 * 1024) ();
    out = Buffer.create 65536;
    rbuf = Bytes.create 65536;
    inflight = 0;
  }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let has_output t = Buffer.length t.out > 0

(** Write as much staged output as the socket takes now. *)
let flush t =
  let s = Buffer.contents t.out in
  let len = String.length s in
  let off = ref 0 in
  (try
     while !off < len do
       off := !off + Unix.write_substring t.fd s !off (len - !off)
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  Buffer.clear t.out;
  if !off < len then Buffer.add_substring t.out s !off (len - !off)

let send t req =
  Buffer.add_bytes t.out (Wire.frame_bytes (Wire.encode_request req));
  (match req with
  | Wire.Submit _ | Wire.Admin _ -> t.inflight <- t.inflight + 1
  | _ -> ());
  flush t

(** Read what has arrived and hand every decoded response to [f]; raises
    [Wire.Closed] when the server has gone. *)
let drain t f =
  let rec read () =
    match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> raise Wire.Closed
    | n ->
      Wire.Decoder.feed t.dec t.rbuf 0 n;
      read ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  read ();
  let rec frames () =
    match Wire.Decoder.next t.dec with
    | None -> ()
    | Some frame ->
      let resp = Wire.decode_response_kind frame in
      (match resp with
      | Wire.Push _ -> ()
      | _ -> t.inflight <- t.inflight - 1);
      f resp;
      frames ()
  in
  frames ()

(** Block up to [timeout] seconds until any connection is readable (or
    writable, when it has staged output), then drain them all. *)
let poll conns ~timeout f =
  let rd = List.map (fun c -> c.fd) conns in
  let wr = List.filter_map (fun c -> if has_output c then Some c.fd else None) conns in
  let r, w, _ =
    try Unix.select rd wr [] (Float.max 0. timeout)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter
    (fun c ->
      if List.memq c.fd w then flush c;
      if List.memq c.fd r then drain c (f c))
    conns

let response_id = function
  | Wire.Result { id; _ } | Wire.Error { id; _ } | Wire.Stats { id; _ }
  | Wire.Pong { id; _ } ->
    Some id
  | _ -> None

(** Send one request and wait (at most [timeout] seconds) for the response
    carrying its id; other responses go to [other]. *)
let call ?(timeout = 60.) ?(other = fun _ -> ()) t req =
  let id =
    match req with
    | Wire.Submit { id; _ } | Wire.Admin { id; _ } -> id
    | _ -> invalid_arg "Conn.call"
  in
  send t req;
  let deadline = Clock.now () +. timeout in
  let result = ref None in
  while !result = None do
    if Clock.now () > deadline then failwith "timed out waiting for a response";
    poll [ t ] ~timeout:0.05 (fun _ resp ->
        if response_id resp = Some id then result := Some resp else other resp)
  done;
  Option.get !result

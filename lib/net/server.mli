(** TCP server exposing one shared {!Youtopia.System.t}.

    One accept thread plus [event_loops] workers, each multiplexing its
    share of non-blocking sockets via {!Netpoll} (a [poll(2)] stub): reads
    feed the incremental {!Wire.Decoder}, complete frames dispatch inline
    on the loop, outbound frames queue per connection (bounded by
    [max_outq]) and flush under [POLLOUT], and a self-pipe wakeup hands
    drainer fan-outs and coordination pushes back to the owning loop.  A
    connection with [max_in_flight] batched writes outstanding loses read
    interest until responses drain (backpressure).  Idle deadlines are
    swept loop-side and exempt connections whose user owns a parked
    pending query, plus replica links.

    Engine work runs under a writer-preferring {!Rwlock}: read-only
    scripts and admin probes share the engine.  Writes go through a
    {b batching executor}: writer requests enqueue into a bounded batch
    queue and a single drainer thread takes whatever is queued (up to
    [max_batch], with no linger timer), holds the exclusive lock once for
    the batch, executes every request with per-request error isolation,
    emits one WAL group flush ({!Relational.Wal.with_batch}) and one
    coordinator poke for the whole batch, then fans responses out.  Group
    commit comes naturally: while one batch executes, the next one
    accumulates.  Pushes are handed off from the coordinator's fulfilment
    path straight onto the owning connection's outbound queue via
    {!Youtopia.Session.set_listener}, so clients receive coordination
    answers without polling.

    Connections negotiated at protocol ≥ 2 receive bulky payloads
    (replication chunks, large result sets) as raw-bytes frames. *)

val log_src : Logs.src

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read it back with {!port} *)
  backlog : int;
  max_frame : int;  (** frames beyond this are rejected, both directions *)
  read_timeout : float;
      (** seconds a connection may sit idle before teardown; 0 = forever.
          Connections whose user owns a parked pending query are exempt *)
  max_outq : int;
      (** frames a connection may have queued outbound before it is
          dropped as a slow consumer (a peer that stops reading) *)
  banner : string;  (** sent back in the WELCOME frame *)
  fastpath : bool;
      (** route write scripts the {!Sql.Confluence} classifier proves
          invariant-confluent down the shared-lock latch path
          ({!Relational.Fastpath}) instead of the exclusive batching
          executor.  Ignored in replica mode.  Default from the
          [YOUTOPIA_FASTPATH] environment variable ([true] unless set to
          0/false/off/no) *)
  fastpath_workers : int;
      (** threads executing fast-path requests concurrently under the
          shared engine lock (default 2) *)
  max_batch : int;  (** most write requests the drainer executes per batch *)
  max_batchq : int;
      (** bound on queued write requests; a full queue blocks the
          enqueuing thread (backpressure, not an error) *)
  durability : Relational.Wal.durability option;
      (** applied to the system's WAL at {!start}; [None] leaves the
          database's current mode untouched *)
  replica_of : (string * int) option;
      (** run as a read replica of this primary: read-only SELECTs and
          admin probes are served locally, anything that could mutate is
          rejected with a redirect error naming the primary
          ({!Wire.readonly_redirect}), and a background loop bootstraps
          from a streamed snapshot then tails the primary's WAL *)
  replica_id : string;  (** name announced in the replica handshake *)
  event_loops : int;  (** event-loop workers (default 1) *)
  max_in_flight : int;
      (** batched writes one connection may have outstanding before the
          owning loop drops its read interest (backpressure) *)
  max_conns : int;
      (** refuse accepts beyond this many live connections; 0 = unlimited *)
}

val default_config : config
(** 127.0.0.1:7077, 1 MiB frames, no read timeout, 1024-frame outbound
    queues; batches of up to 32 requests from a 256-deep queue,
    durability untouched; not a replica.  1 event loop, 64 writes in
    flight per connection, unlimited connections. *)

type t

val start : ?config:config -> Youtopia.System.t -> t
(** Bind, listen, and spawn the accept thread.  Raises [Unix.Unix_error]
    if the address is unavailable. *)

val port : t -> int
(** The bound port (useful with [config.port = 0]). *)

val stats : t -> Server_stats.t
val system : t -> Youtopia.System.t

val is_replica : t -> bool

val stop : t -> unit
(** Graceful shutdown: stop accepting, close every connection after its
    outbound queue drains, join all threads.  Idempotent. *)

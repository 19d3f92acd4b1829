(** The enforcement service as a process: a [Unix.select] loop around
    {!Engine}.

    The daemon owns the sockets and the wall clock and nothing else — all
    protocol and policy behaviour lives in the transport-agnostic
    {!Engine}, which is what the chaos sweep and the property tests
    exercise. Time is a {e monotonic-clamped} wall clock: [gettimeofday]
    stepped backwards (NTP) never rewinds deadlines or the slowloris
    clock.

    Shutdown is graceful by construction: SIGTERM/SIGINT (or a client's
    {!Wire.Drain}) put the engine into drain — new enforce requests are
    answered [Λ/overload], the queue keeps executing — and the loop exits
    once the queue is empty and the last reply bytes are flushed. *)

module Sink = Secpol_trace.Sink
module Metrics = Secpol_trace.Metrics

type address = Unix_path of string | Tcp of string * int

val address_to_string : address -> string

val serve :
  ?config:Engine.config ->
  ?sink:Sink.t ->
  ?metrics:Metrics.t ->
  ?store:Store.t ->
  ?poll:float ->
  ?signals:bool ->
  ?ready:(address -> unit) ->
  ?should_stop:(unit -> bool) ->
  ?metrics_address:address ->
  ?metrics_ready:(address -> unit) ->
  ?http_deadline:float ->
  address ->
  unit
(** Bind, listen, serve until drained. [store] defaults to a fresh
    memory store; give {!Store.dir} to survive restarts. [poll] is the
    select timeout (the engine steps at least this often even when idle,
    so deadlines and slowloris stalls fire without traffic); while
    admitted requests are still queued the select only polls (timeout
    0), so queued work never waits on the client's next bytes. [signals]
    installs SIGTERM/SIGINT drain handlers (and ignores SIGPIPE);
    restores the old handlers on exit. [ready] is called once with the
    {e bound} address — for [Tcp (host, 0)] it carries the kernel-chosen
    port. [should_stop] is polled once per loop round (for in-process
    tests).

    [metrics_address] opens the observability plane on a second listen
    socket in the same loop: [GET /metrics] (Prometheus text rendered
    from a {!Secpol_trace.Metrics.snapshot} of the engine registry) and
    [GET /healthz] ({!Engine.health_json}; 503 while draining), one
    request per connection, HTTP/1.0, close after answering — see
    {!Http}. [metrics_ready] receives its bound address. The socket
    keeps answering through drain (that is when an operator most wants
    it) and closes when the daemon exits. The plane cannot hold the
    loop hostage: a connection gets [http_deadline] seconds (default
    [2.0]) to deliver its request line before the fd is reclaimed, and
    the response write is non-blocking with the same budget, so a
    scraper that connects and goes silent — or stops reading — is cut
    off, never enforcement.

    @raise Unix.Unix_error if an address cannot be bound. *)

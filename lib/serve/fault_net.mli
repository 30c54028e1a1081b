(** Test-only fault injection over socket reads and writes.

    A shim between the server and [Unix.read]/[Unix.write_substring]:
    with no shim installed ([None]) the calls pass straight through at
    zero cost; with one, each I/O operation first consumes the next
    queued fault (raising it) and otherwise proceeds with its length
    clamped — short reads and torn writes on demand. The chaos suite
    ([test/test_chaos.ml]) drives the server through this shim to prove
    it survives the network misbehaving: injected [ECONNRESET]/[EPIPE]
    drop only the afflicted connection, [EINTR] is retried, a {!Kill}
    escapes the connection loop and exercises worker supervision.

    Deterministic by construction: faults fire in queue order, one per
    I/O call, with no randomness and no clock. All operations are
    mutex-protected; one shim may serve several worker domains.
    Injections are counted in [serve.faults.injected]. *)

exception Worker_killed
(** Not a socket error: deliberately escapes the connection handler's
    [Unix_error] recovery to simulate a worker-domain crash, so tests
    can prove the supervisor respawns workers. *)

(** One injected fault, consumed by the next matching I/O call:
    [Error e] raises [Unix.Unix_error (e, _, _)], [Kill] raises
    {!Worker_killed}, [Delay s] stalls the call by [s] seconds and then
    performs it. *)
type fault = Error of Unix.error | Kill | Delay of float

type t

val create : unit -> t
(** A shim with no faults queued and no length clamps. *)

val set_max_read : t -> int -> unit
(** Clamp every subsequent read to at most [n] bytes (short reads);
    [n < 1] removes the clamp. *)

val set_max_write : t -> int -> unit
(** Clamp every subsequent write to at most [n] bytes (torn writes);
    [n < 1] removes the clamp. *)

val inject_read : t -> fault list -> unit
(** Queue faults to be consumed, in order, by subsequent reads. *)

val inject_write : t -> fault list -> unit
(** Queue faults to be consumed, in order, by subsequent writes. *)

val injected : t -> int
(** Faults fired so far. *)

val read : t option -> Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read] through the shim; [None] is the production path. *)

val write_substring : t option -> Unix.file_descr -> string -> int -> int -> int
(** [Unix.write_substring] through the shim. *)

val write_all : t option -> Unix.file_descr -> string -> unit
(** Write the whole string through the shim, one {!write_substring} per
    partial write, retrying [EINTR]. *)

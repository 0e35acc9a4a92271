(** Fault-injection hook for the durability layer.

    All durable writes (containers, WAL headers and records)
    go through {!output}/{!output_string}.  Arming a byte budget makes
    the write path behave like a process killed mid-write: the allowed
    prefix reaches the file — a torn write — and {!Injected_crash} is
    raised; subsequent durable writes keep failing until {!disarm}.

    The budget is process-global, matching the crash model: once a
    process "dies", nothing it does afterwards reaches disk. *)

exception Injected_crash of string

val arm_crash_after_bytes : int -> unit
(** Allow this many more durable bytes, then crash. *)

val disarm : unit -> unit
(** Clear the byte budget and any pending {!fail_next_fsync}. *)

val armed : unit -> bool

val arm_from_env : unit -> unit
(** Arm from [WTRIE_FAULT_CRASH_AFTER] (a byte count) when set — the
    CLI calls this at startup so CI can kill a writer mid-append. *)

val set_crash_hook : (string -> unit) -> unit
(** Invoked with the fault message just before {!Injected_crash} is
    raised.  The tiered store points this at the flight recorder
    ({!Wt_obs.Flight}) so a crash marker lands in the ring before the
    process unwinds; the indirection keeps this library free of an obs
    dependency. *)

val output : out_channel -> string -> int -> int -> unit
(** [output oc s pos len], charging the budget. *)

val output_string : out_channel -> string -> unit

val fsync : Unix.file_descr -> unit
(** [Unix.fsync]; raises [Unix.Unix_error] when it fails, since the
    data it was to make durable may already be lost. *)

val fail_next_fsync : Unix.error -> unit
(** Test hook: the next {!fsync} raises [Unix.Unix_error] with this
    errno instead of syncing.  Cleared by {!disarm}. *)

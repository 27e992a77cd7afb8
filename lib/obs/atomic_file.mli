(** Atomic file replacement: the one write path of every on-disk artifact
    (store entries, checkpoints, metrics snapshots, traces, update
    streams), so a reader never sees a half-written file. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] opens [path.tmp.<pid>], lets [f] write to it, closes
    it and renames it over [path].  If any step raises, the temporary is
    closed and removed and the exception propagates unchanged — I/O
    failures surface as [Sys_error], for callers to map onto their own
    error contract.  No fsync: the rename is atomic, not durable. *)

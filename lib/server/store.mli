(** Durable state of the enforcement service: journal media plus small
    blobs, keyed by name, surviving engine restarts.

    A {!Secpol_journal.Media.t} is one run's journal; the service owns
    many (one per journaled request) plus small metadata blobs (session
    manifests). The store is the indirection that makes crash-restart
    testable in-process: the chaos sweep holds the {!memory} store across
    an engine "kill", builds a fresh engine on it, and recovery finds
    exactly the bytes the dead engine had committed — the same idiom the
    crash sweep uses with preloaded memory media. The {!dir} backend maps
    keys to subdirectories/files under a root for the real daemon. *)

type t

val memory : unit -> t

val dir : string -> t
(** Directory-backed; the root is created if missing. *)

val media : t -> string -> Secpol_journal.Media.t
(** The journal medium for [key], created empty on first use. The same
    key returns the same underlying bytes across engine restarts (the
    {!memory} backend keeps the medium alive; the {!dir} backend reopens
    the subdirectory). A new subdirectory's entry is made durable by the
    medium's first {!Secpol_journal.Media.sync}. *)

val has_media : t -> string -> bool

val put : t -> string -> string -> unit
(** Durably store a blob at [key] (atomic replace): the tmp file is
    fsynced before the rename and its directory after it, and any
    directory made on the way is fsynced into its parent. *)

val get : t -> string -> string option

val keys : t -> prefix:string -> string list
(** All blob and media keys with the prefix, sorted. *)

val subkey : string list -> string
(** Join key components; components must not contain ['/']. *)

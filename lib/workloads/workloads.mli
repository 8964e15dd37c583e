(** The benchmark suite: the paper's ten synthetic servers (telnetd,
    wu-ftpd, xinetd, crond, sysklogd, atftpd, httpd, sendmail, sshd,
    portmap), each with its original vulnerability class, plus the
    firewall-policy family ({!Firewall}) whose canonical member
    [fwpolicyd] rides along as the eleventh workload. *)

type vulnerability =
  | Buffer_overflow  (** tampers local stack data of the running function *)
  | Format_string  (** arbitrary-write: tampers any live memory *)

type t = {
  name : string;
  description : string;
  source : string;  (** MiniC *)
  vulnerability : vulnerability;
}

val all : t list
(** The ten servers in the paper's order, then [fwpolicyd]. *)

val find : string -> t
(** Raises [Not_found]. *)

val firewall : seed:int -> nrules:int -> t
(** Test seam: test_workloads checks that family members are distinct and
    reproducible.  A fresh firewall-policy family member
    ([fwpolicyd-s<seed>-r<n>], see {!Firewall.generate}); distinct names keep
    the per-name compile/system memos sound. *)

val program : ?promote:bool -> t -> Ipds_mir.Program.t
(** Compiled MIR, memoised per [(workload, promote)] — domain-safe and
    exactly-once: concurrent callers for the same configuration block on
    the single in-flight compile.  [promote] (default true) applies
    register promotion ({!Ipds_opt.Promote}), matching the paper's
    register-allocated binaries; pass [false] for the -O0 ablation. *)

val compile_count : unit -> int
(** Test seam: how many MiniC compiles have actually run in this
    process.  test_harness asserts at most one per configuration, and
    the cache smoke test asserts none on a warm run (artifact loads do
    not count).  It reads the [workloads.compiles] registry counter,
    which {!Ipds_obs.Registry.reset} zeroes. *)

val system :
  ?promote:bool ->
  ?options:Ipds_correlation.Analysis.options ->
  ?pool:Ipds_parallel.Pool.t ->
  t ->
  Ipds_core.System.t
(** The compiled tables for a workload, through the incremental cache
    ({!Ipds_artifact.Incremental.system}): in-memory memo first, then
    the ambient artifact store ({!Ipds_artifact.Store.ambient}), then a
    real compile + analysis fanned over [pool] with the store's
    function tier consulted per function; the result is published back
    to the store.  A disk hit also seeds {!program}, so a warm process
    performs zero MiniC compiles and zero analyses for cached
    configurations.  This is the process's one memo of built systems:
    exactly-once and domain-safe per [(workload, promote, options)], so
    omitted [options] and explicit default options share one build; the
    result is byte-identical for every [pool]. *)

val tamper_model : t -> [ `Stack_overflow | `Arbitrary_write ]

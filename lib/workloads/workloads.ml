type vulnerability =
  | Buffer_overflow
  | Format_string

type t = {
  name : string;
  description : string;
  source : string;
  vulnerability : vulnerability;
}

let all =
  [
    {
      name = "telnetd";
      description = "remote shell: password login, privileged commands";
      source = Sources.telnetd;
      vulnerability = Buffer_overflow;
    };
    {
      name = "wu-ftpd";
      description = "FTP server: user levels, quota, path parsing";
      source = Sources.wu_ftpd;
      vulnerability = Format_string;
    };
    {
      name = "xinetd";
      description = "super-server: service table, connection limits";
      source = Sources.xinetd;
      vulnerability = Buffer_overflow;
    };
    {
      name = "crond";
      description = "periodic jobs with privilege flags";
      source = Sources.crond;
      vulnerability = Buffer_overflow;
    };
    {
      name = "sysklogd";
      description = "log daemon: priority threshold, rate limiting";
      source = Sources.sysklogd;
      vulnerability = Format_string;
    };
    {
      name = "atftpd";
      description = "TFTP: read-only enforcement, block transfer loop";
      source = Sources.atftpd;
      vulnerability = Buffer_overflow;
    };
    {
      name = "httpd";
      description = "HTTP: method dispatch, authorization, keep-alive";
      source = Sources.httpd;
      vulnerability = Buffer_overflow;
    };
    {
      name = "sendmail";
      description = "SMTP: sender verification, relay policy, limits";
      source = Sources.sendmail;
      vulnerability = Buffer_overflow;
    };
    {
      name = "sshd";
      description = "SSH: key exchange, bounded auth, privilege levels";
      source = Sources.sshd;
      vulnerability = Buffer_overflow;
    };
    {
      name = "portmap";
      description = "RPC registry: privileged registration, lookups";
      source = Sources.portmap;
      vulnerability = Buffer_overflow;
    };
    {
      name = "fwpolicyd";
      description = "packet filter: first-match rule chain, rate limiting";
      source = Firewall.source Firewall.default_policy;
      vulnerability = Buffer_overflow;
    };
  ]

let firewall ~seed ~nrules =
  {
    name = Printf.sprintf "fwpolicyd-s%d-r%d" seed nrules;
    description = "packet filter: seeded random rule chain";
    source = Firewall.source (Firewall.generate ~seed ~nrules);
    vulnerability = Buffer_overflow;
  }

let find name = List.find (fun w -> String.equal w.name name) all

let cache : (string * bool, Ipds_mir.Program.t) Ipds_parallel.Memo.t =
  Ipds_parallel.Memo.create ()

let compiles = Atomic.make 0
let m_compiles = Ipds_obs.Registry.counter "workloads.compiles"

let program ?(promote = true) w =
  Ipds_parallel.Memo.find_or_add cache (w.name, promote) (fun () ->
      Atomic.incr compiles;
      Ipds_obs.Registry.incr m_compiles;
      let p = Ipds_minic.Minic.compile w.source in
      if promote then Ipds_opt.Promote.program p else p)

let compile_count () = Atomic.get compiles

(* Two-tier system cache: the in-memory memo collapses repeats within a
   process; on a miss, the ambient artifact store (IPDS_CACHE_DIR /
   --cache-dir) is consulted before compiling and analyzing anything.
   A disk hit seeds both the program memo above and the System memo, so
   every later [program]/[cached_build] lookup for this configuration
   stays in memory and the whole warm process performs zero MiniC
   compiles and zero analyses. *)
let systems :
    ( string * bool * Ipds_correlation.Analysis.options,
      Ipds_core.System.t )
    Ipds_parallel.Memo.t =
  Ipds_parallel.Memo.create ()

let system ?(promote = true) ?options ?pool w =
  let options =
    Option.value options ~default:Ipds_correlation.Analysis.default_options
  in
  Ipds_parallel.Memo.find_or_add systems (w.name, promote, options) (fun () ->
      match Ipds_artifact.Store.ambient () with
      | Some store ->
          let key = Ipds_artifact.Store.key ~source:w.source ~promote ~options in
          let sys =
            Ipds_artifact.Incremental.system ~options ?pool store ~key (fun () ->
                program ~promote w)
          in
          (* A disk hit skipped the compile: seed both memos so later
             [program]/[cached_build] lookups stay in memory. *)
          ignore
            (Ipds_parallel.Memo.find_or_add cache (w.name, promote) (fun () ->
                 sys.Ipds_core.System.program));
          Ipds_core.System.seed_cache ~options sys.Ipds_core.System.program sys;
          sys
      | None ->
          let p = program ~promote w in
          Ipds_core.System.cached_build ~options ?pool p)

let tamper_model w =
  match w.vulnerability with
  | Buffer_overflow -> `Stack_overflow
  | Format_string -> `Arbitrary_write

type summary =
  | Pure
  | Writes_args of int list
  | Writes_anything

(* The interpreter in Ipds_machine.Interp gives these executable semantics;
   the summaries here are what the correlation analysis relies on. *)
let default_table =
  [
    ("memset", Writes_args [ 0 ]);
    ("memcpy", Writes_args [ 0 ]);
    ("strcmp", Pure);
    ("strlen", Pure);
    ("checksum", Pure);
    ("log_msg", Pure);
    ("send", Pure);
    ("recv", Writes_args [ 0 ]);
    ("read_line", Writes_args [ 0 ]);
    ("hash_pw", Pure);
    ("syscall", Writes_anything);
  ]

let lookup table name =
  match List.assoc_opt name table with
  | Some s -> s
  | None -> Writes_anything

type t = {
  iid : int;
  op : Op.t;
}

type t = { mutable ops : Op.t array; mutable len : int; ntemps : int }

let of_array ops =
  { ops = Array.copy ops; len = Array.length ops; ntemps = Op.temp_bound ops }

let contents w = Array.sub w.ops 0 w.len

let compact w dead =
  let j = ref 0 in
  for i = 0 to w.len - 1 do
    if dead.(i) = 0 then begin
      w.ops.(!j) <- w.ops.(i);
      incr j
    end
  done;
  w.len <- !j

type 'a table = 'a array ref Domain.DLS.key

let table () = Domain.DLS.new_key (fun () -> ref [||])

let reserve tbl n init =
  let r = Domain.DLS.get tbl in
  if Array.length !r < n then r := Array.make (max n (2 * Array.length !r)) init;
  !r

let get tbl n fill =
  let a = reserve tbl n fill in
  Array.fill a 0 n fill;
  a

module T = Mapping.Transform

type key = { base : Op.temp; base_ver : int; off : int64 }

type store_entry = {
  s_idx : int;
  value : Op.temp;
  value_ver : int;
  mutable raw_ok : bool;
  mutable waw_ok : bool;
}

type load_entry = { dst : Op.temp; dst_ver : int; mutable rar_ok : bool }

let run ops =
  let arr = Array.of_list ops in
  let deleted = Array.make (Array.length arr) false in
  let vers : (Op.temp, int) Hashtbl.t = Hashtbl.create 32 in
  let ver t = Option.value ~default:0 (Hashtbl.find_opt vers t) in
  let bump t = Hashtbl.replace vers t (ver t + 1) in
  let stores : (key, store_entry) Hashtbl.t = Hashtbl.create 8 in
  let loads : (key, load_entry) Hashtbl.t = Hashtbl.create 8 in
  let clear_all () =
    Hashtbl.reset stores;
    Hashtbl.reset loads
  in
  (* Remove entries that may alias [k] (different base identity), and
     the entry for [k] itself if [drop_same] is set. *)
  let invalidate_aliases k ~drop_same =
    let same_base k' = k'.base = k.base && k'.base_ver = k.base_ver in
    let keep k' = same_base k' && (k' <> k || not drop_same) in
    let prune tbl =
      let victims =
        Hashtbl.fold (fun k' _ acc -> if keep k' then acc else k' :: acc) tbl []
      in
      List.iter (Hashtbl.remove tbl) victims
    in
    prune stores;
    prune loads
  in
  Array.iteri
    (fun i op ->
      match op with
      | Op.Set_label _ | Op.Br _ | Op.Brcond _ -> clear_all ()
      | Op.Mb (f, _) ->
          Hashtbl.iter
            (fun _ (e : store_entry) ->
              if not (List.mem f (T.crossable T.F_raw)) then
                e.raw_ok <- false;
              if not (List.mem f (T.crossable T.F_waw)) then
                e.waw_ok <- false)
            stores;
          Hashtbl.iter
            (fun _ (e : load_entry) ->
              if not (List.mem f (T.crossable T.F_rar)) then
                e.rar_ok <- false)
            loads
      | Op.Ld (d, b, off) -> (
          let k = { base = b; base_ver = ver b; off } in
          let forward src =
            if src = d then deleted.(i) <- true
            else arr.(i) <- Op.Mov (d, src);
            bump d
          in
          match Hashtbl.find_opt stores k with
          | Some se when se.raw_ok && se.value_ver = ver se.value ->
              forward se.value
          | _ -> (
              match Hashtbl.find_opt loads k with
              | Some le when le.rar_ok && le.dst_ver = ver le.dst ->
                  forward le.dst
              | _ ->
                  (* A surviving real load of this address pins any
                     tracked older store (cannot WAW-delete it). *)
                  (match Hashtbl.find_opt stores k with
                  | Some se -> se.waw_ok <- false
                  | None -> ());
                  bump d;
                  Hashtbl.replace loads k
                    { dst = d; dst_ver = ver d; rar_ok = true }))
      | Op.St (v, b, off) ->
          let k = { base = b; base_ver = ver b; off } in
          (match Hashtbl.find_opt stores k with
          | Some se when se.waw_ok -> deleted.(se.s_idx) <- true
          | _ -> ());
          invalidate_aliases k ~drop_same:true;
          Hashtbl.replace stores k
            { s_idx = i; value = v; value_ver = ver v; raw_ok = true; waw_ok = true }
      | Op.Cas _ | Op.Atomic _ | Op.Call _ | Op.Host_call _ ->
          clear_all ();
          List.iter bump (Op.writes op)
      | Op.Goto_tb _ | Op.Goto_ptr _ | Op.Exit_halt | Op.Trap _ -> ()
      | Op.Movi _ | Op.Mov _ | Op.Binop _ | Op.Binopi _ | Op.Setcond _ ->
          List.iter bump (Op.writes op))
    arr;
  Array.to_list
    (Array.of_seq
       (Seq.filter_map
          (fun (i, op) -> if deleted.(i) then None else Some op)
          (Array.to_seqi arr)))

module S = Mapping.Schemes

type t = {
  name : string;
  fences : S.frontend;
  passes : Tcg.Pipeline.pass list;
  rmw : S.rmw_lowering;
  host_linker : bool;
  inject : Inject.plan;
}

let qemu =
  {
    name = "qemu";
    fences = S.Qemu_frontend;
    passes = Tcg.Pipeline.qemu_default;
    rmw = S.Helper_gcc10;
    host_linker = false;
    inject = [];
  }

let no_fences = { qemu with name = "no-fences"; fences = S.No_fences_frontend }

let tcg_ver =
  {
    qemu with
    name = "tcg-ver";
    fences = S.Risotto_frontend;
    passes = Tcg.Pipeline.risotto_default;
  }

let risotto =
  {
    tcg_ver with
    name = "risotto";
    rmw = S.Risotto_rmw1;
    host_linker = true;
  }

let all = [ qemu; no_fences; tcg_ver; risotto ]

let by_name =
  [
    ("sc", Sc_model.model);
    ("x86", X86_tso.model);
    ("arm", Arm_cats.model Arm_cats.Corrected);
    ("arm-orig", Arm_cats.model Arm_cats.Original);
    ("tcg", Tcg_model.model);
  ]

type t = {
  name : string;
  mix : float array;
  handler_weights : float array array;
  app_instances : int array;
  os_fraction : float;
  switch_period : int;
  repeat_prob : float;
}

let focused_weights g ~n ~used ~common_weight =
  if n = 0 then [||]
  else begin
    let w = Array.make n 0.0 in
    let used = max 1 (min used n) in
    w.(0) <- common_weight;
    if used > 1 && n > 1 then begin
      (* Draw [used - 1] distinct handlers among 1..n-1. *)
      let order = Array.init (n - 1) (fun i -> i + 1) in
      Prng.shuffle g order;
      let rest = 1.0 -. common_weight in
      let denom = ref 0.0 in
      for k = 0 to used - 2 do
        denom := !denom +. (1.0 /. float_of_int (k + 1))
      done;
      for k = 0 to used - 2 do
        w.(order.(k)) <- rest *. (1.0 /. float_of_int (k + 1)) /. !denom
      done
    end;
    w
  end

let weights_for model g ~used_per_class ~common =
  Array.mapi
    (fun ci used ->
      let n = Array.length model.Model.handlers.(ci) in
      focused_weights g ~n ~used ~common_weight:common.(ci))
    used_per_class

let trfd_4 model =
  let g = Prng.of_int 7001 in
  {
    name = "TRFD_4";
    mix = [| 0.765; 0.23; 0.0; 0.005 |];
    handler_weights =
      weights_for model g ~used_per_class:[| 4; 2; 1; 2 |]
        ~common:[| 0.75; 0.75; 1.0; 0.8 |];
    app_instances = [| 1; 1; 1; 1 |];
    os_fraction = 0.58;
    switch_period = 60;
    repeat_prob = 0.55;
  }

let trfd_make model =
  let g = Prng.of_int 7002 in
  {
    name = "TRFD+Make";
    mix = [| 0.663; 0.215; 0.114; 0.008 |];
    handler_weights =
      weights_for model g ~used_per_class:[| 10; 7; 35; 10 |]
        ~common:[| 0.7; 0.7; 0.12; 0.5 |];
    app_instances = [| 1; 2; 2; 2 |];
    os_fraction = 0.5;
    switch_period = 45;
    repeat_prob = 0.5;
  }

let arc2d_fsck model =
  let g = Prng.of_int 7003 in
  {
    name = "ARC2D+Fsck";
    mix = [| 0.745; 0.221; 0.025; 0.009 |];
    handler_weights =
      weights_for model g ~used_per_class:[| 7; 5; 14; 6 |]
        ~common:[| 0.7; 0.7; 0.2; 0.6 |];
    app_instances = [| 1; 1; 1; 2 |];
    os_fraction = 0.44;
    switch_period = 50;
    repeat_prob = 0.55;
  }

let shell model =
  let g = Prng.of_int 7004 in
  {
    name = "Shell";
    mix = [| 0.297; 0.12; 0.547; 0.036 |];
    handler_weights =
      weights_for model g ~used_per_class:[| 7; 4; 40; 8 |]
        ~common:[| 0.65; 0.65; 0.08; 0.3 |];
    app_instances = [||];
    os_fraction = 1.0;
    switch_period = 40;
    repeat_prob = 0.45;
  }

let standard_workloads = [| trfd_4; trfd_make; arc2d_fsck; shell |]

let standard_count = Array.length standard_workloads

let standard model = Array.map (fun w -> w model) standard_workloads

let standard_programs model =
  let trfd = App_model.trfd () in
  let arc2d = App_model.arc2d () in
  let cc1 = App_model.cc1 () in
  let fsck = App_model.fsck () in
  [|
    (trfd_4 model, Program.make ~os:model ~apps:[| trfd |]);
    (trfd_make model, Program.make ~os:model ~apps:[| trfd; cc1 |]);
    (arc2d_fsck model, Program.make ~os:model ~apps:[| arc2d; fsck |]);
    (shell model, Program.make ~os:model ~apps:[||]);
  |]

(* Methodology robustness: the paper traces about one minute of real time
   per workload; ours traces a fixed instruction-word budget.  This
   experiment re-captures the traces and profiles, and rebuilds the
   layouts, at several budgets over the context's own kernel, and checks
   that the headline ratio - OptS misses over Base misses on the 8 KB
   cache - is stable, i.e. the committed 2 M-word configuration is long
   enough.  The context itself serves its own budget. *)

type point = { words : int; ratio : float }

let budgets_of words = [| words / 4; words / 2; words; words * 2 |]

let ratio_at ctx words =
  let ctx = Context.at_words ctx words in
  let member level = (Levels.build ctx level, Config.make ~size_kb:8 ()) in
  let misses =
    Runner.simulate_batch ctx ~members:[| member Levels.OptS; member Levels.Base |] ()
    |> Array.map (fun runs -> Counters.misses (Runner.total runs))
  in
  Stats.ratio misses.(0) misses.(1)

let compute (ctx : Context.t) =
  (* Same kernel, workloads and engine seed at every budget, so only the
     trace length varies. *)
  Array.map (fun words -> { words; ratio = ratio_at ctx words }) (budgets_of ctx.Context.words)

let report ctx =
  let points = compute ctx in
  let t =
    Table.create [ ("words per workload", Table.Right); ("OptS/Base", Table.Right) ]
  in
  Array.iter
    (fun p -> Table.add_row t [ Table.cell_i p.words; Table.cell_f p.ratio ])
    points;
  let ratios = Array.map (fun p -> p.ratio) points in
  Result.report ~id:"robust" ~section:"Robustness: OptS/Base miss ratio vs traced words"
    [
      Result.of_table t;
      Result.note "spread: %.3f (min %.2f, max %.2f) - the committed runs are stable"
        (Stats.maximum ratios -. Stats.minimum ratios)
        (Stats.minimum ratios) (Stats.maximum ratios);
    ]

(* The repository benchmark: one workload per run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   It prints a self-describing report, then, as its last line, one JSON
   object: the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1), each answer having been checked against an independent
   oracle. It exits non-zero without a result when the benchmark itself
   breaks. *)

open Common

let workloads =
  [
    ( Embedded.paper_iterative.Embedded.wname,
      Embedded.paper_iterative.Embedded.why,
      Embedded.run Embedded.paper_iterative );
    ( Embedded.frontier_sssp.Embedded.wname,
      Embedded.frontier_sssp.Embedded.why,
      Embedded.run Embedded.frontier_sssp );
    (Server_mixed.name, Server_mixed.why, Server_mixed.run);
  ]

let coverage_gaps =
  "the lib/mpp distributed executor and the chunk-parallel operator path \
   (parallel_workers > 1) are on no default engine or server path, so no \
   workload measures them"

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
    { workload; seed; seconds; trace }
  | _ -> usage ()

(* The printed metric set: every name of the catalogue, in order. A
   missing end-to-end value is a broken run; a missing per-layer value
   is a layer this workload does not have, printed as 0. *)
let select (args : args) (r : report) =
  let catalogue = if args.trace then per_layer else end_to_end in
  let missing = ref [] in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name r.values with
        | Some v -> (name, v, unit)
        | None when args.trace ->
          missing := name :: !missing;
          (name, 0.0, unit)
        | None -> broken "no value for %s" name)
      catalogue
  in
  if !missing <> [] then
    say "not measured on this workload (printed as 0): %s"
      (String.concat " " (List.rev !missing));
  metrics

let () =
  let args = parse_args () in
  let _, why, run =
    match List.find_opt (fun (n, _, _) -> n = args.workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %s (have: %s)\n" args.workload
        (String.concat ", " (List.map (fun (n, _, _) -> n) workloads));
      exit 2
  in
  say "workload %s, seed %d, %g s measured, trace %s" args.workload args.seed
    args.seconds
    (if args.trace then "on (half the time untraced, half traced)" else "off");
  say "why: %s" why;
  say "coverage gaps: %s" coverage_gaps;
  match run args with
  | exception Broken msg ->
    Printf.eprintf "benchmark broken: %s\n%!" msg;
    exit 1
  | r ->
    let failed_frac = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
    let r =
      {
        r with
        values =
          r.values
          @ [ ("ok_frac", 1.0 -. failed_frac); ("failed_frac", failed_frac) ];
      }
    in
    let metrics = select args r in
    say "operations: %d attempted, %d failed (errors, refusals or wrong answers)"
      r.attempted r.failed;
    List.iter
      (fun (name, v, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) per_layer_moves with
        | Some (_, _, moves) when args.trace ->
          say "  %-30s %-14.6g %-6s -> %s" name v unit moves
        | _ -> say "  %-30s %.6g %s" name v unit)
      metrics;
    print_endline
      (Util.result_line ~correct:(r.failed = 0) ~attempted:r.attempted
         ~failed:r.failed metrics)

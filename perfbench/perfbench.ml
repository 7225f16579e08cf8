(* perfbench: the host-performance benchmark of the simulator.

     perfbench run --workload W [--seed N] [--seconds S] [--trace 0|1]
     perfbench setup --workload W

   [run] executes one workload's suite entries with Runtime.Runner.run_trial
   on one domain, repeating whole passes until [--seconds] are used, and
   checks every trial: a digest different from regress/baselines/<id>.json
   (at the blessed seed) or from the same trial's first run (at any
   other seed), an exception, or a safety violation fails it. With
   [--trace 0] it prints the end-to-end metrics, measured with no span
   instrumentation; with [--trace 1] it adds span runs (see span.ml) and
   prints the per-layer metrics. The last output line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   [setup] performs only the set-up of a run (suite and baseline load,
   tracer ring allocation) and exits; run.py times it to report setup_s.
   [reference] prints the host-speed factor: [reference_nominal_ns] over
   the median of three runs of the reference load; run.py scales setup_s
   by it, as [wall_s] is scaled.

   Paths are relative to the repository root, the working directory. *)

open Simcore

let suite_path = "regress/suite.json"
let baselines_dir = "regress/baselines"

type selection = Ids of string list | Tier of string

type workload = {
  name : string;
  select : selection;
  traced : bool;  (* record, profile, export and render every trial *)
  seeds : int;  (* seeds per entry; more where one entry's work varies by seed *)
}

let workloads =
  [
    {
      name = "paper-n192";
      select =
        Ids
          [
            "paper-je-ebr-n192";
            "paper-je-ebr-af-n192";
            "paper-jeba-token-n192";
            "paper-mi-token-n192";
            "paper-tc-ebr-n192";
            "paper-je-hp-n192";
          ];
      traced = false;
      seeds = 1;
    };
    { name = "pr-tier"; select = Tier "pr"; traced = false; seeds = 2 };
    { name = "trace-export"; select = Ids [ "occ-ebr-n32" ]; traced = true; seeds = 2 };
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt
let now_ns = Span.now_ns
let ms ns = float_of_int ns /. 1e6

(* --- set-up ----------------------------------------------------------- *)

type entry = {
  id : string;
  config : Runtime.Config.t;
  seed : int;
  expected : string option;  (* blessed digest, when [seed] is the blessed seed *)
}

type env = { workload : workload; entries : entry array; tracer : Tracer.t }

let setup (w : workload) ~seed =
  let suite =
    match Regress.Suite.load suite_path with Ok s -> s | Error m -> die "%s" m
  in
  let entries =
    match w.select with
    | Ids ids ->
        List.map
          (fun id ->
            match List.find_opt (fun e -> e.Regress.Suite.id = id) suite with
            | Some e -> e
            | None -> die "workload %s: no entry %s in %s" w.name id suite_path)
          ids
    | Tier tier -> (
        match Regress.Suite.filter_tier ~tier suite with
        | [] -> die "workload %s: no %s entries in %s" w.name tier suite_path
        | es -> es)
  in
  (* An entry runs at the run's seed and at [w.seeds - 1] seeds derived
     from it, so that runs at different seeds share no input. *)
  let entry (e : Regress.Suite.entry) =
    let id = e.Regress.Suite.id in
    let base =
      match Regress.Baseline.load ~dir:baselines_dir id with
      | Ok b -> b
      | Error m -> die "%s" m
    in
    let blessed = base.Regress.Baseline.seed in
    let seed0 = Option.value seed ~default:blessed in
    List.init w.seeds (fun j ->
        let seed = if j = 0 then seed0 else Hashtbl.hash (seed0, j) in
        {
          id;
          config = e.Regress.Suite.config;
          seed;
          expected = (if seed = blessed then Some base.Regress.Baseline.digest else None);
        })
  in
  {
    workload = w;
    entries = Array.of_list (List.concat_map entry entries);
    tracer = (if w.traced then Tracer.create () else Tracer.disabled);
  }

(* --- checking --------------------------------------------------------- *)

type check = {
  ids : string array;
  reference : string option array;  (* digest every run of an entry must give *)
  mutable attempted : int;
  mutable failed : int;
}

let fail chk i ~what msg =
  chk.failed <- chk.failed + 1;
  Printf.printf "FAILED %s run of %s: %s\n%!" what chk.ids.(i) msg

(* Count one run of entry [i]; true when it passed. *)
let verdict chk i ~what (trial : Runtime.Trial.t) =
  chk.attempted <- chk.attempted + 1;
  let d = Runtime.Trial.digest trial in
  let problem =
    if trial.Runtime.Trial.violations > 0 then
      Some (Printf.sprintf "%d safety violations" trial.Runtime.Trial.violations)
    else
      match chk.reference.(i) with
      | None ->
          chk.reference.(i) <- Some d;
          None
      | Some r when r = d -> None
      | Some r -> Some (Printf.sprintf "digest %s, expected %s" d r)
  in
  Option.iter (fail chk i ~what) problem;
  problem = None

let failure chk i ~what exn =
  chk.attempted <- chk.attempted + 1;
  fail chk i ~what (Printexc.to_string exn)

(* --- GC counts ----------------------------------------------------------- *)

type gc = { minor_words : float; promoted_words : float; major_collections : int }

let no_gc = { minor_words = 0.; promoted_words = 0.; major_collections = 0 }

let gc_add g f =
  let s0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  let r = f () in
  let m1 = Gc.minor_words () and s1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = g.minor_words +. (m1 -. m0);
      promoted_words = g.promoted_words +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
      major_collections =
        g.major_collections + (s1.Gc.major_collections - s0.Gc.major_collections);
    } )

(* --- host-speed reference ----------------------------------------------- *)

(* The host's speed drifts by up to 2x over seconds to tens of minutes
   (shared caches and memory bandwidth; see README.md), and it slows the
   simulator far more than an integer loop. This fixed load slows with it: it
   allocates, rebalances an ordered map and probes a hash table, as the
   simulator does, but uses none of the simulator's code, so a change to
   the simulator leaves its time alone. Passes time it between trials, and
   [wall_s] scales each pass's trial time by [reference_nominal_ns] over
   the pass's mean reference time. *)
module Int_map = Map.Make (Int)

let reference_load () =
  let h = Hashtbl.create 1024 in
  let m = ref Int_map.empty and r = ref 7 and s = ref 0 in
  let step () = r := ((!r * 1103515245) + 12345) land 0x3fffffff in
  for i = 1 to 25_000 do
    step ();
    Hashtbl.replace h (!r land 0xffff) i;
    m := Int_map.add (!r land 0x3ffff) i !m;
    if i land 3 = 0 then m := Int_map.remove ((!r lsr 3) land 0x3ffff) !m
  done;
  for _ = 1 to 25_000 do
    step ();
    match Int_map.find_opt (!r land 0x3ffff) !m with Some v -> s := !s + v | None -> ()
  done;
  !s + Hashtbl.length h

(* Between the reference's times on a shared 2-vCPU Xeon VM in a quiet
   hour (about 20 ms) and a busy one (30 to 45 ms), so that [wall_s] reads
   close to host seconds there. *)
let reference_nominal_ns = 30_000_000

(* Between trials, a pass runs the reference until it has taken this share
   of the trials' time, so its runs sample the host as often as the trials
   do. *)
let reference_share = 0.2

let reference_ns () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (reference_load ()));
  now_ns () - t0

(* --- plain (uninstrumented) passes ------------------------------------ *)

type plain = {
  stage_ns : int array array;  (* per entry, each stage's minimum over measured passes *)
  ops : int array;
  digests : string array;
  recorded : int array;  (* per entry, traced workloads only *)
  retained : int array;
  bytes : int array;
  mutable passes : int;  (* measured passes; the warm-up pass is not counted *)
  mutable pass_ms : float list;  (* measured passes' trial time, newest first *)
  mutable scaled_ms : float list;  (* the same, scaled to the nominal reference *)
  mutable reference_ms : float list;  (* every reference time *)
  mutable gc : gc;  (* warm-up pass, timed regions only; repeats exactly *)
  mutable heap_mb : float;  (* major heap peak after the warm-up pass *)
}

let new_plain n =
  {
    stage_ns = Array.make n [||];
    ops = Array.make n 0;
    digests = Array.make n "";
    recorded = Array.make n 0;
    retained = Array.make n 0;
    bytes = Array.make n 0;
    passes = 0;
    pass_ms = [];
    scaled_ms = [];
    reference_ms = [];
    gc = no_gc;
    heap_mb = 0.;
  }

(* One entry, untraced (one stage) or through the whole recording and
   export path (trial, profile, Chrome export, render). Returns the trial,
   the stage times and the rendered size. *)
let plain_trial env (e : entry) =
  let tr = env.tracer in
  if not env.workload.traced then begin
    let t0 = now_ns () in
    let trial = Runtime.Runner.run_trial e.config ~seed:e.seed in
    (trial, [| now_ns () - t0 |], 0)
  end
  else begin
    Tracer.clear tr;
    let t0 = now_ns () in
    let trial = Runtime.Runner.run_trial ~tracer:tr e.config ~seed:e.seed in
    let t1 = now_ns () in
    let (_ : Simtrace.Profile.t) = Simtrace.Profile.of_tracer tr in
    let t2 = now_ns () in
    let doc = Simtrace.Chrome.export tr in
    let t3 = now_ns () in
    let bytes = String.length (Json.render doc) in
    let t4 = now_ns () in
    (trial, [| t1 - t0; t2 - t1; t3 - t2; t4 - t3 |], bytes)
  end

let entry_ns p i = Array.fold_left ( + ) 0 p.stage_ns.(i)
let stage_ns p i k = if p.stage_ns.(i) = [||] then 0 else p.stage_ns.(i).(k)
let total p f = Array.fold_left ( + ) 0 (Array.init (Array.length p.stage_ns) f)

(* The warm-up pass checks every trial and reads the GC counts and the
   heap peak, before the reference has allocated anything. *)
let warm_up env chk p =
  Array.iteri
    (fun i e ->
      Gc.full_major ();
      match gc_add p.gc (fun () -> plain_trial env e) with
      | exception exn -> failure chk i ~what:"plain" exn
      | (trial, _, _), g ->
          p.gc <- g;
          if verdict chk i ~what:"plain" trial then begin
            p.ops.(i) <- trial.Runtime.Trial.ops;
            p.digests.(i) <- Runtime.Trial.digest trial
          end)
    env.entries;
  p.heap_mb <-
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* A measured pass. Every trial starts from a collected heap, as in a
   fresh process. *)
let plain_pass env chk p =
  let refs = ref [] and refs_ns = ref 0 and trials_ns = ref 0 in
  (* Reference runs start from a collected heap, and the trial after them
     from another, so neither pays for the other's garbage. *)
  let catch_up () =
    Gc.full_major ();
    while !refs = [] || float_of_int !refs_ns < reference_share *. float_of_int !trials_ns do
      let t = reference_ns () in
      refs := t :: !refs;
      refs_ns := !refs_ns + t
    done
  in
  Array.iteri
    (fun i e ->
      catch_up ();
      Gc.full_major ();
      match plain_trial env e with
      | exception exn -> failure chk i ~what:"plain" exn
      | trial, stages, bytes ->
          trials_ns := !trials_ns + Array.fold_left ( + ) 0 stages;
          if verdict chk i ~what:"plain" trial then begin
            let best = p.stage_ns.(i) in
            p.stage_ns.(i) <- (if best = [||] then stages else Array.map2 min best stages);
            if env.workload.traced then begin
              p.recorded.(i) <- Tracer.recorded env.tracer;
              p.retained.(i) <- Tracer.retained env.tracer;
              p.bytes.(i) <- bytes
            end
          end)
    env.entries;
  catch_up ();
  let mean_ref = float_of_int !refs_ns /. float_of_int (List.length !refs) in
  p.reference_ms <- List.rev_append (List.rev_map ms !refs) p.reference_ms;
  p.pass_ms <- ms !trials_ns :: p.pass_ms;
  p.scaled_ms <- (ms !trials_ns *. float_of_int reference_nominal_ns /. mean_ref) :: p.scaled_ms;
  p.passes <- p.passes + 1

(* Run [f] once, then again while one more run is expected to end by
   [until] (host ns). *)
let fill ~until f =
  let once () =
    let t = now_ns () in
    f ();
    now_ns () - t
  in
  let last = ref (once ()) in
  while now_ns () + !last <= until do
    last := once ()
  done

(* --- span passes ------------------------------------------------------ *)

(* Self times may differ from the independently read wall by this share. *)
let reconcile_tolerance = 0.01

type spans = {
  best : Span.result option array;  (* per entry, the fastest span run *)
  mutable worst_gap : float;  (* largest |self sum - wall| / wall seen *)
  mutable span_passes : int;
}

let span_pass env chk s =
  Array.iteri
    (fun i (e : entry) ->
      Gc.full_major ();
      if env.workload.traced then Tracer.clear env.tracer;
      match Span.run ~tracer:env.tracer e.config ~seed:e.seed with
      | exception exn -> failure chk i ~what:"span" exn
      | r ->
          let self = Array.fold_left ( + ) 0 r.Span.self_ns in
          let gap = float_of_int (abs (self - r.Span.wall_ns)) /. float_of_int r.Span.wall_ns in
          s.worst_gap <- Float.max s.worst_gap gap;
          if gap > reconcile_tolerance then begin
            chk.attempted <- chk.attempted + 1;
            fail chk i ~what:"span"
              (Printf.sprintf "self times sum to %d ns, wall %d ns" self r.Span.wall_ns)
          end
          else if verdict chk i ~what:"span" r.Span.trial then
            match s.best.(i) with
            | Some b when b.Span.wall_ns <= r.Span.wall_ns -> ()
            | _ -> s.best.(i) <- Some r)
    env.entries;
  s.span_passes <- s.span_passes + 1

(* --- host fingerprint ------------------------------------------------- *)

(* Two fixed loops that do not depend on the simulator, for comparing
   hosts and runs: an integer loop that stays in registers, and a
   dependent random walk over 32 MB that misses the caches. Each is the
   minimum of three runs, in ms. *)
let calibration () =
  let best f =
    let once () =
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (f ()));
      now_ns () - t0
    in
    ms (min (once ()) (min (once ()) (once ())))
  in
  let alu () =
    let x = ref 1 in
    for i = 1 to 20_000_000 do
      x := ((!x * 1103515245) + i) land 0x3fffffff
    done;
    !x
  in
  let n = 1 lsl 22 in
  (* A single cycle through all slots (Sattolo's shuffle, fixed LCG). *)
  let next = Array.init n Fun.id in
  let r = ref 12345 in
  for i = n - 1 downto 1 do
    r := ((!r * 1103515245) + 12345) land 0x3fffffff;
    let j = !r mod i in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let walk () =
    let k = ref 0 in
    for _ = 1 to 500_000 do
      k := Array.unsafe_get next !k
    done;
    !k
  in
  (best alu, best walk)

(* --- output ----------------------------------------------------------- *)

type value = Float of float | Int of int

let metric_json (name, v, unit_) =
  let v =
    match v with
    | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
    | Float _ -> "0" (* no trial passed; the line says correct: false *)
    | Int i -> string_of_int i
  in
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit_

let print_metrics metrics =
  List.iter
    (fun (name, v, unit_) ->
      let v = match v with Float f -> Printf.sprintf "%.6g" f | Int i -> string_of_int i in
      Printf.printf "  %-28s %14s %s\n" name v unit_)
    metrics

let result_line ~chk metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (chk.failed = 0) chk.attempted chk.failed
    (String.concat ", " (List.map metric_json metrics))

let sum a = Array.fold_left ( + ) 0 a
let per a b = if b = 0 then 0. else a /. float_of_int b

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [wall_s]: the median over measured passes of the pass's trial time,
   scaled to the nominal reference speed. *)
let end_to_end p =
  let wall_s = median p.scaled_ms /. 1e3 in
  let ops = sum p.ops in
  [
    ("wall_s", Float wall_s, "s");
    ("sim_ops_per_host_s", Float (float_of_int ops /. wall_s), "ops/s");
    ("host_peak_heap_mb", Float p.heap_mb, "MB");
  ]

let per_layer p s =
  let g = p.gc in
  let results = Array.to_list s.best |> List.filter_map Fun.id in
  let tot f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let self l = tot (fun r -> r.Span.self_ns.(l)) in
  let calls l = tot (fun r -> r.Span.calls.(l)) in
  let self_ms l = Float (ms (self l)) in
  let ns_per l n = Float (per (float_of_int (self l)) n) in
  let ops = sum p.ops in
  let yields = tot (fun r -> r.Span.yields) in
  let nodes = tot (fun r -> r.Span.nodes) in
  let span_wall = tot (fun r -> r.Span.wall_ns) in
  (* Untraced workloads record nothing, so the trace layer reads 0. *)
  let stage_ms k = Float (if sum p.recorded = 0 then 0. else ms (total p (fun i -> stage_ns p i k))) in
  [
    ("sched.self_ms", self_ms Span.Layer.sched, "ms");
    ("sched.calls", Int (calls Span.Layer.sched), "count");
    ("sched.yields", Int yields, "count");
    ("sched.elided_yields", Int (tot (fun r -> r.Span.elided_yields)), "count");
    ("sched.ns_per_yield", ns_per Span.Layer.sched yields, "ns");
    ("alloc.self_ms", self_ms Span.Layer.alloc, "ms");
    ("alloc.calls", Int (calls Span.Layer.alloc), "count");
    ("alloc.ns_per_call", ns_per Span.Layer.alloc (calls Span.Layer.alloc), "ns");
    ("alloc.frees", Int (tot (fun r -> r.Span.frees)), "count");
    ("alloc.flushes", Int (tot (fun r -> r.Span.flushes)), "count");
    ("alloc.remote_frees", Int (tot (fun r -> r.Span.remote_frees)), "count");
    ("smr.self_ms", self_ms Span.Layer.smr, "ms");
    ("smr.calls", Int (calls Span.Layer.smr), "count");
    ("smr.ns_per_call", ns_per Span.Layer.smr (calls Span.Layer.smr), "ns");
    ("smr.epochs", Int (tot (fun r -> r.Span.epochs)), "count");
    ("smr.retired", Int (tot (fun r -> r.Span.retires)), "count");
    ("smr.hp_scans", Int (tot (fun r -> r.Span.hp_scans)), "count");
    ("ds.self_ms", self_ms Span.Layer.ds, "ms");
    ("ds.calls", Int (calls Span.Layer.ds), "count");
    ("ds.nodes_visited", Int nodes, "count");
    ("ds.ns_per_node", ns_per Span.Layer.ds nodes, "ns");
    ("driver.self_ms", self_ms Span.Layer.driver, "ms");
    ("gc.minor_words_per_op", Float (per g.minor_words ops), "words/op");
    ("gc.promoted_words_per_op", Float (per g.promoted_words ops), "words/op");
    ("gc.major_collections", Int g.major_collections, "count");
    ("trace.trial_ms", stage_ms 0, "ms");
    ("trace.profile_ms", stage_ms 1, "ms");
    ("trace.export_ms", stage_ms 2, "ms");
    ("trace.render_ms", stage_ms 3, "ms");
    ("trace.events_recorded", Int (sum p.recorded), "count");
    ("trace.events_retained", Int (sum p.retained), "count");
    ("trace.bytes", Int (sum p.bytes), "bytes");
    ("span.overhead_ratio", Float (per (float_of_int span_wall) (total p (fun i -> stage_ns p i 0))), "ratio");
  ]

(* --- commands --------------------------------------------------------- *)

let run (w : workload) ~seed ~seconds ~trace =
  let setup_t0 = now_ns () in
  let env = setup w ~seed in
  let setup_ns = now_ns () - setup_t0 in
  let n = Array.length env.entries in
  Printf.printf "workload %s: %d trials, seed %s, %d s, trace %d, in-process setup %.3f ms\n%!"
    w.name n
    (match seed with Some s -> string_of_int s | None -> "blessed")
    seconds (if trace then 1 else 0) (ms setup_ns);
  let chk =
    {
      ids = Array.map (fun e -> e.id) env.entries;
      reference = Array.map (fun e -> e.expected) env.entries;
      attempted = 0;
      failed = 0;
    }
  in
  let p = new_plain n in
  let s = { best = Array.make n None; worst_gap = 0.; span_passes = 0 } in
  let start = now_ns () in
  let budget = seconds * 1_000_000_000 in
  warm_up env chk p;
  (* Span runs: timed in trace mode; otherwise one pass, within the budget,
     only to check the digests where no blessed baseline applies. *)
  if (not trace) && Array.exists (fun e -> e.expected = None) env.entries then
    span_pass env chk s;
  fill ~until:(if trace then start + (budget / 2) else start + budget) (fun () ->
      plain_pass env chk p);
  if trace then fill ~until:(start + budget) (fun () -> span_pass env chk s);
  (* After the measured passes, so its array stays out of the heap peak. *)
  let alu_ms, walk_ms = calibration () in
  Printf.printf "host: nproc %d, OCaml %s, calibration: integer loop %.3f ms, memory walk %.3f ms\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version alu_ms walk_ms;
  Printf.printf "%-26s %6s %10s %12s  %s\n" "trial" "seed" "sim ops" "best ms" "digest";
  Array.iteri
    (fun i e ->
      Printf.printf "%-26s %6d %10d %12.3f  %s\n" e.id e.seed p.ops.(i) (ms (entry_ns p i))
        p.digests.(i))
    env.entries;
  let show l = String.concat " " (List.rev_map (Printf.sprintf "%.1f") l) in
  Printf.printf "measured passes, trial time (ms): %s\n" (show p.pass_ms);
  Printf.printf "measured passes, scaled to a %.0f ms reference (ms): %s\n"
    (ms reference_nominal_ns) (show p.scaled_ms);
  Printf.printf "reference load (ms): median %.2f, range %.2f-%.2f over %d runs\n"
    (median p.reference_ms)
    (List.fold_left Float.min Float.infinity p.reference_ms)
    (List.fold_left Float.max 0. p.reference_ms)
    (List.length p.reference_ms);
  Printf.printf "passes: %d plain, %d span; trials: %d, failed_trials: %d\n" p.passes
    s.span_passes chk.attempted chk.failed;
  if s.span_passes > 0 then
    Printf.printf "span self times vs wall: worst gap %.4f%% (tolerance %.1f%%)\n"
      (100. *. s.worst_gap) (100. *. reconcile_tolerance);
  if s.span_passes > 0 then begin
    let self = Array.make Span.Layer.count 0 in
    Array.iter
      (Option.iter (fun r -> Array.iteri (fun l v -> self.(l) <- self.(l) + v) r.Span.self_ns))
      s.best;
    let all = float_of_int (sum self) in
    Printf.printf "span time by layer:%s\n"
      (String.concat ""
         (List.mapi
            (fun l name -> Printf.sprintf " %s %.1f%%" name (100. *. float_of_int self.(l) /. all))
            Span.Layer.names))
  end;
  let metrics = if trace then per_layer p s else end_to_end p in
  print_metrics metrics;
  result_line ~chk metrics

let usage =
  "usage: perfbench run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
  \       perfbench setup --workload W\n\
  \       perfbench reference\n\
   workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let () =
  let cmd, rest =
    match Array.to_list Sys.argv with _ :: c :: r -> (c, r) | _ -> die "%s" usage
  in
  let rec opts acc = function
    | [] -> acc
    | k :: v :: r when List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
        opts ((k, v) :: acc) r
    | x :: _ -> die "unexpected argument %s\n%s" x usage
  in
  let o = opts [] rest in
  if cmd = "reference" then begin
    let t = median (List.init 3 (fun _ -> float_of_int (reference_ns ()))) in
    Printf.printf "%.9f\n" (float_of_int reference_nominal_ns /. t);
    exit 0
  end;
  let int_opt k =
    Option.map
      (fun v ->
        match int_of_string_opt v with Some i -> i | None -> die "%s: not an integer: %s" k v)
      (List.assoc_opt k o)
  in
  let w =
    match List.assoc_opt "--workload" o with
    | None -> die "--workload is required\n%s" usage
    | Some name -> (
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None -> die "unknown workload %s\n%s" name usage)
  in
  match cmd with
  | "setup" -> ignore (setup w ~seed:None : env)
  | "run" ->
      let seconds = Option.value (int_opt "--seconds") ~default:40 in
      if seconds < 1 then die "--seconds must be positive";
      let trace =
        match int_opt "--trace" with
        | None | Some 0 -> false
        | Some 1 -> true
        | Some _ -> die "--trace takes 0 or 1"
      in
      run w ~seed:(int_opt "--seed") ~seconds ~trace
  | c -> die "unknown command %s\n%s" c usage

(* Bechamel micro-benchmarks of the primitives underlying every table: the
   allocator fast paths, the flush slow path, reclaimer bookkeeping and data
   structure operations. These measure *host* performance of the simulator
   itself (how fast the reproduction runs), complementing the virtual-time
   results above. One Test.make per primitive family. *)

open Bechamel
open Toolkit

let make_world ?tracer () =
  let sched =
    Simcore.Sched.create ~topology:Simcore.Topology.intel_192t ~n_threads:4 ~seed:11 ()
  in
  (match tracer with Some tr -> Simcore.Sched.set_tracer sched tr | None -> ());
  let alloc = Alloc.Registry.make "jemalloc" sched in
  (sched, alloc)

(* Run a closure inside a simulated thread once per invocation. *)
let staged ?tracer f =
  let sched, alloc = make_world ?tracer () in
  let th = Simcore.Sched.thread sched 0 in
  (* Spawn a long-lived fiber? Simpler: drive the body directly with a
     one-shot scheduler run per measurement batch. *)
  fun () ->
    Simcore.Sched.spawn sched th (fun th -> f alloc th);
    Simcore.Sched.run sched

let test_alloc_free =
  Test.make ~name:"sim malloc+free (tcache hit)"
    (Staged.stage
       (staged (fun alloc th ->
            for _ = 1 to 100 do
              let h = alloc.Alloc.Alloc_intf.malloc th 240 in
              alloc.Alloc.Alloc_intf.free th h
            done)))

let test_batch_free =
  Test.make ~name:"sim batch free (flush path)"
    (Staged.stage
       (staged (fun alloc th ->
            let handles = Array.init 256 (fun _ -> alloc.Alloc.Alloc_intf.malloc th 240) in
            Array.iter (alloc.Alloc.Alloc_intf.free th) handles)))

(* The same flush workload with event tracing enabled: recording is six int
   stores into a preallocated ring, so the ns/run and minor-words/run columns
   should sit on top of the untraced instance above — the empirical half of
   the "tracing does not perturb host performance" claim. The ring is sized
   so a 0.5 s quota of batches wraps it many times over; wraparound is the
   steady state being measured. *)
let test_batch_free_traced =
  let tracer = Simcore.Tracer.create ~capacity:(1 lsl 16) () in
  Test.make ~name:"sim batch free (flush path, traced)"
    (Staged.stage
       (staged ~tracer (fun alloc th ->
            let handles = Array.init 256 (fun _ -> alloc.Alloc.Alloc_intf.malloc th 240) in
            Array.iter (alloc.Alloc.Alloc_intf.free th) handles)))

let test_abtree_ops =
  Test.make ~name:"sim abtree insert+delete"
    (Staged.stage
       (staged (fun alloc th ->
            let ctx = { Ds.Ds_intf.alloc; retire = (fun _ _ -> ()); node_cost = 10 } in
            let ds = Ds.Abtree.make ctx th in
            for k = 0 to 199 do
              ignore (ds.Ds.Ds_intf.insert th (k * 37 mod 256))
            done;
            for k = 0 to 199 do
              ignore (ds.Ds.Ds_intf.delete th (k * 37 mod 256))
            done)))

let test_smr_cycle =
  Test.make ~name:"sim debra retire cycle"
    (Staged.stage
       (staged (fun alloc th ->
            let sched = th.Simcore.Sched.sched in
            let policy =
              Smr.Free_policy.create ~mode:(Smr.Free_policy.Amortized 1) ~alloc
                ~n:(Simcore.Sched.n_threads sched) ()
            in
            let ctx = { Smr.Smr_intf.sched; alloc; policy; safety = None } in
            let smr = Smr.Epoch_based.debra ctx in
            for _ = 1 to 100 do
              smr.Smr.Smr_intf.begin_op th;
              smr.Smr.Smr_intf.retire th (alloc.Alloc.Alloc_intf.malloc th 240);
              smr.Smr.Smr_intf.end_op th
            done)))

(* The grouping primitive on its own: the per-flush work that used to build
   a tuple array, sort it polymorphically and cons up run lists, and is now
   a sort of packed ints in reused scratch. Measured with the minor-words
   instance alongside time, since the point of the rewrite is that this is
   allocation-free. *)
let test_grouper =
  let table = Alloc.Obj_table.create () in
  let v = Simcore.Vec.create () in
  (* 256 handles spread over 16 homes, interleaved like a real flush batch. *)
  for i = 0 to 255 do
    Simcore.Vec.push v (Alloc.Obj_table.fresh table ~size_class:0 ~home:(i mod 16))
  done;
  let g = Alloc.Alloc_intf.Grouper.create () in
  Test.make ~name:"flush grouping (256 handles, 16 homes)"
    (Staged.stage (fun () -> Alloc.Alloc_intf.Grouper.group g table v ~len:256))

(* The scheduler's event-dispatch cycle: [n] events in flight, pop the
   minimum and re-push it a little ahead, the thread-clock advance pattern
   of a running trial. The sparse case is an n32 trial's steady state
   (clocks a few hundred virtual ns apart); the dense case is the paper's
   n192, where clocks advance by a few ns and many pops break a tie on
   seq. Both must show ~0 minor words/run. *)
let test_dispatch ?(label = "") ~spread ~stride ~jitter n =
  let q = Simcore.Heap.create ~dummy:(-1) in
  let keys = Array.make n 0 in
  let seq = ref 0 in
  for i = 0 to n - 1 do
    incr seq;
    keys.(i) <- i * stride mod spread;
    Simcore.Heap.push q ~key:keys.(i) ~seq:!seq i
  done;
  Test.make
    ~name:(Printf.sprintf "event dispatch%s (%d threads)" label n)
    (Staged.stage (fun () ->
         for _ = 1 to 100 do
           let x = Simcore.Heap.pop_le_default q ~bound:max_int in
           incr seq;
           keys.(x) <- keys.(x) + stride + (jitter * (x land 7));
           Simcore.Heap.push q ~key:keys.(x) ~seq:!seq x
         done))

let test_dispatch_sparse = test_dispatch ~spread:4096 ~stride:211 ~jitter:97
let test_dispatch_dense = test_dispatch ~label:" dense ties" ~spread:500 ~stride:3 ~jitter:1

let run () =
  Exp.section "Micro-benchmarks (Bechamel; host-time cost of simulator primitives)";
  let tests =
    [
      test_alloc_free;
      test_batch_free;
      test_batch_free_traced;
      test_grouper;
      test_dispatch_sparse 32;
      test_dispatch_sparse 192;
      test_dispatch_dense 192;
      test_abtree_ops;
      test_smr_cycle;
    ]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:(Some 300) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let estimate a = match Analyze.OLS.estimates a with Some [ e ] -> Some e | _ -> None in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let time = Analyze.all ols Instance.monotonic_clock results in
      let words = Analyze.all ols Instance.minor_allocated results in
      Hashtbl.iter
        (fun name t ->
          let w = Option.bind (Hashtbl.find_opt words name) estimate in
          match (estimate t, w) with
          | Some ns, Some w ->
              Printf.printf "  %-40s %12.1f ns/run %14.1f minor words/run\n%!" name ns w
          | Some ns, None -> Printf.printf "  %-40s %12.1f ns/run\n%!" name ns
          | None, _ -> Printf.printf "  %-40s (no estimate)\n%!" name)
        time)
    tests

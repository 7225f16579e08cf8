(* The event-queue contract the scheduler's dispatch loop depends on, with
   keys that jump across many orders of magnitude (2^17, 2^25, 2^33 ns and
   beyond). These cases were first written for the timing wheel, which
   once served as the event queue beside the heap; the wheel is gone and
   the heap meets the contract alone. The group keeps the name "wheel" so
   the case ids stay the same as before. *)

open Simcore

let span17 = 1 lsl 17
let span25 = 1 lsl 25
let span33 = 1 lsl 33
let drain = Test_heap.drain

(* Pure pushes with seq = list position drain in the stable sort by key. *)
let stable_order kvs = List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) kvs)

let drain_pushes kvs =
  let h = Heap.create ~dummy:(-1) in
  List.iteri (fun i (key, x) -> Heap.push h ~key ~seq:i x) kvs;
  drain h

let test_ordering () =
  let kvs = [ (5000, 0); (100, 1); (4096, 2); (100, 3); (3000, 4); (0, 5) ] in
  Alcotest.(check (list int)) "mixed keys" (stable_order kvs) (drain_pushes kvs);
  let keys =
    [ span25 + 1; span17 - 1; span17; span17 + 1; 1; span25 - 1; span25; span33 - 1; span33;
      span33 + 1; 0; span33 * 40; span17 * 2; span33 * 12; 7; span33 * 12 ]
  in
  let kvs = List.mapi (fun i k -> (k, i)) keys in
  Alcotest.(check (list int)) "keys across many magnitudes" (stable_order kvs) (drain_pushes kvs)

let test_fifo_ties () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~key:7777 ~seq:1 "first";
  Heap.push h ~key:7777 ~seq:2 "second";
  Heap.push h ~key:7777 ~seq:3 "third";
  Alcotest.(check (list string)) "insertion order on equal keys"
    [ "first"; "second"; "third" ] (drain h)

let test_growth () =
  (* Thousands of ties on one key, far past the initial capacity. *)
  let n = 5000 in
  let h = Heap.create ~dummy:(-1) in
  for i = 0 to n - 1 do
    Heap.push h ~key:42 ~seq:i i
  done;
  Alcotest.(check int) "length" n (Heap.length h);
  Alcotest.(check (list int)) "ties drain in seq order" (List.init n Fun.id) (drain h)

let test_pop_le_bounds () =
  let h = Heap.create ~dummy:(-1) in
  Alcotest.(check (option int)) "empty" None (Heap.pop_le h ~bound:max_int);
  Alcotest.(check int) "empty default" (-1) (Heap.pop_le_default h ~bound:max_int);
  Heap.push h ~key:1000 ~seq:0 0;
  Alcotest.(check (option int)) "below min" None (Heap.pop_le h ~bound:999);
  Alcotest.(check int) "default sentinel" (-1) (Heap.pop_le_default h ~bound:999);
  Alcotest.(check (option int)) "at min" (Some 0) (Heap.pop_le h ~bound:1000);
  Heap.push h ~key:2000 ~seq:1 1;
  Alcotest.(check int) "default hit" 1 (Heap.pop_le_default h ~bound:3000);
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_has_le_conservative () =
  (* has_le never answers false while an event sits at or below the
     bound; the heap's answer is exact, so it is false below the minimum. *)
  let keys = [ 100; span17 + 3; span25 + 9; span33 * 3 ] in
  let h = Heap.create ~dummy:(-1) in
  List.iteri (fun i k -> Heap.push h ~key:k ~seq:i i) keys;
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "has_le at %d" k) true (Heap.has_le h ~bound:k))
    keys;
  Alcotest.(check bool) "below the minimum" false (Heap.has_le h ~bound:99);
  ignore (Heap.pop h);
  Alcotest.(check bool) "popped min gone" false (Heap.has_le h ~bound:200)

(* The heap against test_heap's sorted-list model, on traces whose deltas
   the scale spreads from a few ns to about 2^45 ns. The case name dates
   from when this check ran the wheel against the heap as its oracle. *)
let prop_matches_oracle =
  Helpers.prop ~count:300 "wheel matches heap on monotone-safe traces"
    QCheck.(
      list_of_size Gen.(int_range 0 120) (triple (int_bound 1000) (int_bound 1000) (int_bound 2000)))
    (fun instrs ->
      Test_heap.matches_model
        (List.map
           (fun (op, scale, m) -> (op, m * [| 1; 211; 70099; 17_000_017 |].(scale mod 4)))
           instrs))

let prop_granularities =
  (* Keys rounded down to multiples of 2^gbits, from 2 ns (few ties) to
     64 us (dense ties): drain order is the stable sort regardless. *)
  Helpers.prop ~count:100 "pure pushes match stable sort at any granularity"
    QCheck.(pair (int_range 1 16) (list_of_size Gen.(int_range 0 80) (int_bound 100_000)))
    (fun (gbits, keys) ->
      let kvs = List.mapi (fun i k -> ((k lsr gbits) lsl gbits, i)) keys in
      drain_pushes kvs = stable_order kvs)

let suite =
  ( "wheel",
    [
      Helpers.quick "ordering" test_ordering;
      Helpers.quick "fifo_ties" test_fifo_ties;
      Helpers.quick "growth" test_growth;
      Helpers.quick "pop_le_bounds" test_pop_le_bounds;
      Helpers.quick "has_le_conservative" test_has_le_conservative;
      prop_matches_oracle;
      prop_granularities;
    ] )

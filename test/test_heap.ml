open Simcore

let drain h =
  let rec go acc = match Heap.pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let test_ordering () =
  let h = Heap.create ~dummy:0 in
  List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check (list int)) "min-first, stable ties" [ 1; 1; 3; 4; 5 ] (drain h)

let test_fifo_ties () =
  let h = Heap.create ~dummy:"" in
  Heap.push h ~key:7 ~seq:1 "first";
  Heap.push h ~key:7 ~seq:2 "second";
  Heap.push h ~key:7 ~seq:3 "third";
  Alcotest.(check (list string)) "insertion order on equal keys"
    [ "first"; "second"; "third" ] (drain h);
  List.iter (fun (seq, x) -> Heap.push h ~key:7 ~seq x) [ (6, "c"); (4, "a"); (5, "b") ];
  Alcotest.(check (list string)) "seq order on equal keys, whatever the push order"
    [ "a"; "b"; "c" ] (drain h)

let test_peek () =
  let h = Heap.create ~dummy:0 in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek_key h);
  Heap.push h ~key:9 ~seq:0 9;
  Heap.push h ~key:2 ~seq:1 2;
  Alcotest.(check (option int)) "peek is min" (Some 2) (Heap.peek_key h);
  Alcotest.(check int) "length" 2 (Heap.length h)

let test_interleaved () =
  (* Pushes after a pop stay at or after the popped key, as the
     scheduler's do. *)
  let h = Heap.create ~dummy:0 in
  Heap.push h ~key:3 ~seq:0 3;
  Heap.push h ~key:1 ~seq:1 1;
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Heap.push h ~key:2 ~seq:2 2;
  Alcotest.(check (option int)) "new min" (Some 2) (Heap.pop h);
  Heap.push h ~key:2 ~seq:3 20;
  Alcotest.(check (option int)) "push at the popped key" (Some 20) (Heap.pop h);
  Alcotest.(check (option int)) "remaining" (Some 3) (Heap.pop h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_clock_regression_raises () =
  let h = Heap.create ~dummy:(-1) in
  Heap.push h ~key:1000 ~seq:0 0;
  ignore (Heap.pop h);
  Heap.push h ~key:1000 ~seq:1 1;
  match Heap.push h ~key:500 ~seq:2 2 with
  | () -> Alcotest.fail "heap accepted a key below the last popped key"
  | exception Failure msg ->
      Alcotest.(check bool) "error names the regressing key" true (Helpers.contains msg "500");
      Alcotest.(check bool) "error names the last popped key" true
        (Helpers.contains msg "1000")

let prop_heapsort =
  Helpers.prop "pop order sorts any input" QCheck.(list small_int) (fun l ->
      let h = Heap.create ~dummy:0 in
      List.iteri (fun i k -> Heap.push h ~key:k ~seq:i k) l;
      drain h = List.stable_sort compare l)

let prop_grow =
  Helpers.prop ~count:20 "growth beyond initial capacity" QCheck.(int_range 100 1000)
    (fun n ->
      let h = Heap.create ~dummy:0 in
      for i = n downto 1 do
        Heap.push h ~key:i ~seq:(n - i) i
      done;
      drain h = List.init n (fun i -> i + 1))

(* The reference model: the pending events as a list sorted by (key, seq).
   An instruction is (op, delta). Pushes key at [floor + delta], where
   [floor] is the last popped key, so the monotone contract holds by
   construction. Five op codes in nine push, so traces of a few hundred
   instructions grow well past the heap's initial 64 slots. Values are the
   seqs, so a pop names exactly which event came out. *)
let matches_model instrs =
  let h = Heap.create ~dummy:(-1) in
  let model = ref [] and seq = ref 0 and floor = ref 0 and ok = ref true in
  let expect want got = if want <> got then ok := false in
  let model_pop_le bound =
    match !model with
    | (k, s) :: rest when k <= bound ->
        model := rest;
        floor := k;
        Some s
    | _ -> None
  in
  List.iter
    (fun (op, delta) ->
      let bound = !floor + delta in
      (match op mod 9 with
      | 0 | 1 | 2 | 3 | 4 ->
          incr seq;
          model := List.merge compare [ (bound, !seq) ] !model;
          Heap.push h ~key:bound ~seq:!seq !seq
      | 5 -> expect (model_pop_le max_int) (Heap.pop h)
      | 6 -> expect (model_pop_le bound) (Heap.pop_le h ~bound)
      | 7 ->
          expect
            (Option.value (model_pop_le bound) ~default:(-1))
            (Heap.pop_le_default h ~bound)
      | _ ->
          let min_key = match !model with (k, _) :: _ -> Some k | [] -> None in
          expect min_key (Heap.peek_key h);
          expect (match min_key with Some k -> k <= bound | None -> false) (Heap.has_le h ~bound));
      expect (List.length !model) (Heap.length h))
    instrs;
  !ok && drain h = List.map snd !model

(* A third of the deltas are 0 and another third are below 8, so long
   runs of equal keys (tie storms) pop purely by seq. *)
let prop_matches_model =
  Helpers.prop ~count:300 "matches a sorted-list model"
    QCheck.(list_of_size Gen.(int_range 0 600) (pair (int_bound 1000) (int_bound 10_000)))
    (fun instrs ->
      matches_model
        (List.map (fun (op, m) -> (op, match m mod 3 with 0 -> 0 | 1 -> m mod 8 | _ -> m)) instrs))

let suite =
  ( "heap",
    [
      Helpers.quick "ordering" test_ordering;
      Helpers.quick "fifo_ties" test_fifo_ties;
      Helpers.quick "peek" test_peek;
      Helpers.quick "interleaved" test_interleaved;
      Helpers.quick "clock_regression_raises" test_clock_regression_raises;
      prop_heapsort;
      prop_grow;
      prop_matches_model;
    ] )

(* 4-ary min-heap keyed by (time, sequence): the scheduler's event queue.
   The sequence number makes the scheduler deterministic: events with equal
   timestamps pop in insertion order.

   A 4-ary heap is half as deep as a binary one, and the four children of
   a node sit next to each other in the key array, so a sift-down compares
   them within one or two cache lines. Both sifts move a hole instead of
   swapping: the moving element stays in locals and is written once, at its
   final slot. *)

type 'a t = {
  mutable keys : int array;  (* primary key: virtual time *)
  mutable seqs : int array;  (* tie-break: insertion sequence *)
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
  mutable last : int;  (* last popped key; pushes behind it are rejected *)
}

let create ~dummy =
  {
    keys = Array.make 64 0;
    seqs = Array.make 64 0;
    data = Array.make 64 dummy;
    len = 0;
    dummy;
    last = min_int;
  }

let length t = t.len
let is_empty t = t.len = 0

(* Place (key, seq, x) by moving the hole at [i] up past every larger
   parent. *)
let sift_up t i key seq x =
  let keys = t.keys and seqs = t.seqs and data = t.data in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = keys.(p) in
    if key < pk || (key = pk && seq < seqs.(p)) then begin
      keys.(!i) <- pk;
      seqs.(!i) <- seqs.(p);
      data.(!i) <- data.(p);
      i := p
    end
    else moving := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  data.(!i) <- x

(* Place (key, seq, x) by moving the hole at the root down past every
   smaller least child. *)
let sift_down t key seq x =
  let keys = t.keys and seqs = t.seqs and data = t.data and len = t.len in
  let i = ref 0 and moving = ref true in
  while !moving do
    let c = (4 * !i) + 1 in
    if c >= len then moving := false
    else begin
      let m = ref c and mk = ref keys.(c) and ms = ref seqs.(c) in
      let last = if c + 3 < len then c + 3 else len - 1 in
      for j = c + 1 to last do
        let kj = keys.(j) in
        if kj < !mk || (kj = !mk && seqs.(j) < !ms) then begin
          m := j;
          mk := kj;
          ms := seqs.(j)
        end
      done;
      if !mk < key || (!mk = key && !ms < seq) then begin
        keys.(!i) <- !mk;
        seqs.(!i) <- !ms;
        data.(!i) <- data.(!m);
        i := !m
      end
      else moving := false
    end
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  data.(!i) <- x

let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 and data = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.data 0 data 0 t.len;
  t.keys <- keys;
  t.seqs <- seqs;
  t.data <- data

let push t ~key ~seq x =
  if key < t.last then
    failwith
      (Printf.sprintf
         "Heap.push: clock regression — key %d is before the last popped key %d; the \
          scheduler's event keys must be monotone non-decreasing (a scheduler bug, not a \
          queue bug)"
         key t.last);
  if t.len = Array.length t.keys then grow t;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) key seq x

(* Remove and return the root. Precondition: [t.len > 0]. *)
let take t =
  let x = t.data.(0) in
  t.last <- t.keys.(0);
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down t t.keys.(n) t.seqs.(n) t.data.(n);
  t.data.(n) <- t.dummy;
  x

let pop t = if t.len = 0 then None else Some (take t)
let peek_key t = if t.len = 0 then None else Some t.keys.(0)

(* The scheduler's event-loop fast path: pop the minimum element only when
   its key is within [bound], in one call instead of a [peek_key] followed
   by a [pop]. *)
let pop_le t ~bound = if t.len > 0 && t.keys.(0) <= bound then Some (take t) else None

(* As [pop_le] but returning the dummy sentinel instead of [None]: the
   dispatch loop's no-allocation variant. *)
let pop_le_default t ~bound = if t.len > 0 && t.keys.(0) <= bound then take t else t.dummy

let has_le t ~bound = t.len > 0 && t.keys.(0) <= bound

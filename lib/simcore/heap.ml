(* Binary min-heap keyed by (time, sequence). The sequence number makes the
   scheduler deterministic: events with equal timestamps pop in insertion
   order. *)

type 'a t = {
  mutable keys : int array;  (* primary key: virtual time *)
  mutable seqs : int array;  (* tie-break: insertion sequence *)
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
  mutable last : int;  (* last popped key *)
  mutable check : bool;  (* reject pushes behind [last] *)
}

let create ~dummy =
  {
    keys = Array.make 64 0;
    seqs = Array.make 64 0;
    data = Array.make 64 dummy;
    len = 0;
    dummy;
    last = min_int;
    check = false;
  }

let enable_monotone_check t = t.check <- true

let length t = t.len
let is_empty t = t.len = 0

let less t i j =
  t.keys.(i) < t.keys.(j) || (t.keys.(i) = t.keys.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t l !smallest then smallest := l;
  if r < t.len && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

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
  if t.check && key < t.last then
    failwith
      (Printf.sprintf
         "Heap.push: clock regression — key %d is before the last popped key %d; the \
          scheduler's event keys must be monotone non-decreasing (a scheduler bug, not a \
          queue bug)"
         key t.last);
  if t.len = Array.length t.keys then grow t;
  t.keys.(t.len) <- key;
  t.seqs.(t.len) <- seq;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

(* Remove and return the root. Precondition: [t.len > 0]. *)
let take t =
  let x = t.data.(0) in
  t.last <- t.keys.(0);
  t.len <- t.len - 1;
  t.keys.(0) <- t.keys.(t.len);
  t.seqs.(0) <- t.seqs.(t.len);
  t.data.(0) <- t.data.(t.len);
  t.data.(t.len) <- t.dummy;
  if t.len > 0 then sift_down t 0;
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

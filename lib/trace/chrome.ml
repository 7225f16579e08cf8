open Simcore

(* Scheduler-state events live in their own process lane so Perfetto shows
   the run/stall/preempt timeline above the workload events. *)
let pid_of_kind = function
  | Tracer.Run | Tracer.Stall | Tracer.Preempt | Tracer.Yield -> 1
  | _ -> 0

let is_lock_kind = function
  | Tracer.Lock_wait | Tracer.Lock_acquire | Tracer.Lock_hold -> true
  | _ -> false

(* Shared immutable nodes: the export allocates per event only what
   depends on the event's own numbers. The fields that follow from the kind
   (name, cat, pid) are built once per kind, and small ints and the tid
   fields that hold them once per value. Rendering reads the tree without
   regard to sharing, so the bytes are the same. *)
let small = 256
let ints = Array.init small (fun i -> Json.Int i)
let int_node i = if i >= 0 && i < small then ints.(i) else Json.Int i
let tid_fields = Array.init small (fun i -> ("tid", ints.(i)))
let tid_field i = if i >= 0 && i < small then tid_fields.(i) else ("tid", Json.Int i)
let ph_x = ("ph", Json.String "X")
let ph_i = ("ph", Json.String "i")
let scope_thread = ("s", Json.String "t")

type kind_fields = { name_f : string * Json.t; cat_f : string * Json.t; pid_f : string * Json.t }

(* Indexed by [Tracer.code] (all codes are below 32); codes that name no
   kind stay [None]. *)
let kind_fields =
  let fields k =
    let pid = pid_of_kind k in
    {
      name_f = ("name", Json.String (Tracer.kind_name k));
      cat_f = ("cat", Json.String (if pid = 1 then "sched" else "sim"));
      pid_f = ("pid", ints.(pid));
    }
  in
  Array.init 32 (fun c ->
      match Tracer.of_code c with k -> Some (fields k) | exception Invalid_argument _ -> None)

let args_of tr (ev : Tracer.event) =
  let base = [ ("a", int_node ev.Tracer.a); ("b", int_node ev.Tracer.b) ] in
  if is_lock_kind ev.Tracer.kind then
    ("lock", Json.String (Tracer.name tr ev.Tracer.b)) :: base
  else base

(* Most events carry an [a] and [b] below 16 (runs and yields: 0 or 1).
   Unless they name a lock, they share their whole args field and, for
   instants, every field after [ts]; [(a, b)] indexes [a * 16 + b]. *)
let small_ab = 16

let arg_tails =
  Array.init (small_ab * small_ab) (fun i ->
      [ ("args", Json.Assoc [ ("a", ints.(i / small_ab)); ("b", ints.(i mod small_ab)) ]) ])

let instant_tails = Array.map (fun tail -> ph_i :: scope_thread :: tail) arg_tails

let event_json tr (ev : Tracer.event) =
  let k = Option.get kind_fields.(Tracer.code ev.Tracer.kind) in
  let a = ev.Tracer.a and b = ev.Tracer.b in
  let shared =
    a >= 0 && a < small_ab && b >= 0 && b < small_ab && not (is_lock_kind ev.Tracer.kind)
  in
  let i = (a * small_ab) + b in
  let tail = if shared then arg_tails.(i) else [ ("args", Json.Assoc (args_of tr ev)) ] in
  let shape =
    if ev.Tracer.dur >= 0 then ph_x :: ("dur", int_node ev.Tracer.dur) :: tail
    else if shared then instant_tails.(i)
    else ph_i :: scope_thread :: tail
  in
  Json.Assoc
    (k.name_f :: k.cat_f :: k.pid_f
    :: tid_field ev.Tracer.tid
    :: ("ts", int_node ev.Tracer.ts)
    :: shape)

let metadata ~pid ~name =
  Json.Assoc
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Assoc [ ("name", Json.String name) ]);
    ]

(* Sort so that times increase and, at equal start times, the longer span
   comes first: a parent must precede the children it contains. [seq] breaks
   the remaining ties deterministically. *)
let compare_events (x : Tracer.event) (y : Tracer.event) =
  if x.Tracer.ts <> y.Tracer.ts then compare x.Tracer.ts y.Tracer.ts
  else if x.Tracer.dur <> y.Tracer.dur then compare y.Tracer.dur x.Tracer.dur
  else compare x.Tracer.seq y.Tracer.seq

let export tr =
  let evs = Tracer.events tr in
  (* [seq] is unique, so the order is total and stability changes nothing;
     the merge sort is just faster than the heap sort of [Array.sort]. *)
  Array.stable_sort compare_events evs;
  let events = Array.fold_right (fun ev acc -> event_json tr ev :: acc) evs [] in
  let names = Array.to_list (Array.map (fun n -> Json.String n) (Tracer.names tr)) in
  Json.Assoc
    [
      ( "traceEvents",
        Json.List
          (metadata ~pid:0 ~name:"workload" :: metadata ~pid:1 ~name:"scheduler" :: events) );
      ("displayTimeUnit", Json.String "ns");
      ( "otherData",
        Json.Assoc
          [
            ("clock", Json.String "virtual-ns");
            ("recorded", Json.Int (Tracer.recorded tr));
            ("retained", Json.Int (Tracer.retained tr));
            ("dropped", Json.Int (Tracer.dropped tr));
            ("lock_names", Json.List names);
          ] );
    ]

let write_file path tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.render (export tr));
      output_char oc '\n')

(* --- Validation ------------------------------------------------------- *)

let validate doc =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match doc with
  | Json.Assoc _ -> (
      match Json.member "traceEvents" doc with
      | Json.List evs ->
          (* last timestamp seen, for the monotonicity check (metadata
             events carry no ts and are skipped). *)
          let last_ts = ref min_int in
          (* Per-lane stack of open-span end times, keyed by (pid, tid). *)
          let stacks : (int * int, int list ref) Hashtbl.t = Hashtbl.create 16 in
          List.iteri
            (fun i ev ->
              let field name = Json.member name ev in
              let int_field name =
                match field name with
                | Json.Int n -> Some n
                | Json.Null ->
                    err "event %d: missing %S" i name;
                    None
                | v ->
                    err "event %d: %S is %s, expected int" i name (Json.type_name v);
                    None
              in
              match ev with
              | Json.Assoc _ -> (
                  (match field "name" with
                  | Json.String _ -> ()
                  | _ -> err "event %d: missing string \"name\"" i);
                  match field "ph" with
                  | Json.String "M" -> ()  (* metadata: no ts required *)
                  | Json.String ph -> (
                      let pid = int_field "pid" in
                      let tid = int_field "tid" in
                      let ts = int_field "ts" in
                      (match ts with
                      | Some t ->
                          if t < !last_ts then
                            err "event %d: ts %d precedes previous ts %d" i t !last_ts;
                          last_ts := max !last_ts t
                      | None -> ());
                      match ph with
                      | "X" -> (
                          match (pid, tid, ts, int_field "dur") with
                          | Some pid, Some tid, Some ts, Some dur ->
                              if dur < 0 then err "event %d: negative dur %d" i dur
                              else begin
                                let key = (pid, tid) in
                                let stack =
                                  match Hashtbl.find_opt stacks key with
                                  | Some s -> s
                                  | None ->
                                      let s = ref [] in
                                      Hashtbl.add stacks key s;
                                      s
                                in
                                (* Pop spans that ended before this one starts. *)
                                while
                                  match !stack with
                                  | e :: rest when e <= ts ->
                                      stack := rest;
                                      true
                                  | _ -> false
                                do
                                  ()
                                done;
                                (match !stack with
                                | enclosing :: _ when ts + dur > enclosing ->
                                    err
                                      "event %d: span [%d,%d] on lane (%d,%d) overlaps \
                                       enclosing span ending at %d"
                                      i ts (ts + dur) pid tid enclosing
                                | _ -> ());
                                stack := (ts + dur) :: !stack
                              end
                          | _ -> ())
                      | "i" -> ()
                      | other -> err "event %d: unknown ph %S" i other)
                  | Json.Null -> err "event %d: missing \"ph\"" i
                  | v -> err "event %d: \"ph\" is %s, expected string" i (Json.type_name v))
              | v -> err "event %d: %s, expected object" i (Json.type_name v))
            evs
      | Json.Null -> err "missing \"traceEvents\""
      | v -> err "\"traceEvents\" is %s, expected list" (Json.type_name v))
  | v -> err "document is %s, expected object" (Json.type_name v));
  List.rev !errors

open Simcore

(* Scheduler-state events live in their own process lane so Perfetto shows
   the run/stall/preempt timeline above the workload events. *)
let pid_of_kind = function
  | Tracer.Run | Tracer.Stall | Tracer.Preempt | Tracer.Yield -> 1
  | _ -> 0

let is_lock_kind = function
  | Tracer.Lock_wait | Tracer.Lock_acquire | Tracer.Lock_hold -> true
  | _ -> false

let args_of tr (ev : Tracer.event) =
  let base = [ ("a", Json.Int ev.Tracer.a); ("b", Json.Int ev.Tracer.b) ] in
  if is_lock_kind ev.Tracer.kind then
    ("lock", Json.String (Tracer.name tr ev.Tracer.b)) :: base
  else base

let event_json tr (ev : Tracer.event) =
  let common =
    [
      ("name", Json.String (Tracer.kind_name ev.Tracer.kind));
      ("cat", Json.String (if pid_of_kind ev.Tracer.kind = 1 then "sched" else "sim"));
      ("pid", Json.Int (pid_of_kind ev.Tracer.kind));
      ("tid", Json.Int ev.Tracer.tid);
      ("ts", Json.Int ev.Tracer.ts);
    ]
  in
  let shape =
    if ev.Tracer.dur >= 0 then
      [ ("ph", Json.String "X"); ("dur", Json.Int ev.Tracer.dur) ]
    else [ ("ph", Json.String "i"); ("s", Json.String "t") ]
  in
  Json.Assoc (common @ shape @ [ ("args", Json.Assoc (args_of tr ev)) ])

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
  Array.sort compare_events evs;
  let body = Array.to_list (Array.map (event_json tr) evs) in
  let meta = [ metadata ~pid:0 ~name:"workload"; metadata ~pid:1 ~name:"scheduler" ] in
  let names = Array.to_list (Array.map (fun n -> Json.String n) (Tracer.names tr)) in
  Json.Assoc
    [
      ("traceEvents", Json.List (meta @ body));
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

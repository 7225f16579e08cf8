(* A work-stealing Domain pool for embarrassingly parallel trial fan-out.

   Every (config, seed) trial is a fully isolated, deterministically seeded
   simulation — nothing is shared between trials but immutable
   configuration — so the pool's only job is to keep [jobs] domains busy
   and to reassemble results in submission order. Workers steal the next
   unclaimed task index from a shared atomic counter, which self-balances
   across wildly uneven trial durations without per-domain deques; results
   land in a preallocated slot array, so parallel output is bit-identical
   to sequential output regardless of completion order (the regression
   harness's exact gate enforces exactly this).

   Exceptions raised by a task are caught in the worker and re-raised in
   the caller — for the first failing task in submission order — after all
   domains have been joined. *)

let env_var = "EPOCHS_JOBS"

(* Parse a job-count override; [None] when malformed or below 1. *)
let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let resolve_jobs = function
  | Some j when j >= 1 -> Ok j
  | Some j -> Error (Printf.sprintf "jobs (-j) must be at least 1, got %d" j)
  | None -> (
      match Sys.getenv_opt env_var with
      | None | Some "" -> Ok (Domain.recommended_domain_count ())
      | Some s -> (
          match parse_jobs s with
          | Some n -> Ok n
          | None -> Error (Printf.sprintf "%s=%S is not a positive integer" env_var s)))

let default_jobs () =
  match resolve_jobs None with Ok n -> n | Error msg -> invalid_arg msg

let map ?jobs f tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let jobs =
    max 1 (min n (match jobs with Some j -> j | None -> default_jobs ()))
  in
  if jobs <= 1 then Array.to_list (Array.map f tasks)
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f tasks.(i) with
          | r -> results.(i) <- Some r
          | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
          loop ()
        end
      in
      loop ()
    in
    (* The calling domain is worker zero; only jobs-1 domains are spawned. *)
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    Array.iter (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ()) errors;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

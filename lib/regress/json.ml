(* Minimal deterministic JSON for the regression harness. See json.mli for
   why this exists (no JSON package in the container; canonical output). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Type_error of string

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Assoc _ -> "object"

let fail expected j =
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (type_name j)))

let to_bool = function Bool b -> b | j -> fail "bool" j
let to_int = function Int i -> i | j -> fail "int" j

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | String "nan" -> Float.nan
  | String "inf" -> Float.infinity
  | String "-inf" -> Float.neg_infinity
  | j -> fail "float" j

let to_string = function String s -> s | j -> fail "string" j
let to_list = function List l -> l | j -> fail "list" j
let to_assoc = function Assoc l -> l | j -> fail "object" j

let member name = function
  | Assoc l -> ( match List.assoc_opt name l with Some v -> v | None -> Null)
  | j -> fail "object" j

let mem name = function Assoc l -> List.mem_assoc name l | _ -> false

(* Shortest decimal form that round-trips; integers keep a ".0" so the
   value parses back as a float. Deterministic: depends only on the bits of
   the double, never on locale or environment. *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* [render] runs in two passes over the tree: [size] counts the exact
   output bytes, [write] fills one [Bytes] of that length, threading the
   write position through its return value. No buffer grows, nothing is
   copied out, and the final position must equal the count. Each [*_width]
   below is the byte count of what the matching [put_*] writes. *)

(* JSON has no literal for a non-finite float: it renders as a string. *)
let nonfinite_name f = if Float.is_nan f then "nan" else if f > 0. then "inf" else "-inf"

(* Decimal width of [i] as [string_of_int] prints it; counts on the
   non-positive side so that [min_int] needs no special case. *)
let int_width i =
  let rec go n w = if n > -10 then w else go (n / 10) (w + 1) in
  if i < 0 then go i 2 else go (-i) 1

let put_int b pos i =
  let w = int_width i in
  let n = ref (if i < 0 then i else -i) in
  for p = pos + w - 1 downto if i < 0 then pos + 1 else pos do
    Bytes.set b p (Char.unsafe_chr (Char.code '0' - (!n mod 10)));
    n := !n / 10
  done;
  if i < 0 then Bytes.set b pos '-';
  pos + w

let char_width = function
  | '"' | '\\' | '\n' | '\r' | '\t' -> 2
  | c when c < ' ' -> 6
  | _ -> 1

let escaped_width s =
  let w = ref 2 in
  for i = 0 to String.length s - 1 do
    w := !w + char_width (String.unsafe_get s i)
  done;
  !w

let hex = "0123456789abcdef"

let put_escaped b pos s =
  Bytes.set b pos '"';
  let p = ref (pos + 1) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('"' | '\\' | '\n' | '\r' | '\t') as c ->
        Bytes.set b !p '\\';
        Bytes.set b (!p + 1) (match c with '\n' -> 'n' | '\r' -> 'r' | '\t' -> 't' | c -> c);
        p := !p + 2
    | c when c < ' ' ->
        Bytes.blit_string "\\u00" 0 b !p 4;
        Bytes.set b (!p + 4) hex.[Char.code c lsr 4];
        Bytes.set b (!p + 5) hex.[Char.code c land 15];
        p := !p + 6
    | c ->
        Bytes.set b !p c;
        incr p
  done;
  Bytes.set b !p '"';
  !p + 1

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let render ?(minify = false) t =
  (* A line break before each item: "\n" plus the indent, when pretty. *)
  let newline_width indent = if minify then 0 else 1 + indent in
  let colon = if minify then ":" else ": " in
  let rec size indent = function
    | Null -> 4
    | Bool v -> if v then 4 else 5
    | Int i -> int_width i
    | Float f ->
        if Float.is_finite f then String.length (float_str f)
        else escaped_width (nonfinite_name f)
    | String s -> escaped_width s
    | List [] | Assoc [] -> 2
    | List items ->
        let rec go acc = function
          | [] -> acc
          | v :: rest -> go (acc + 1 + newline_width (indent + 2) + size (indent + 2) v) rest
        in
        (* [go] counts a separator per item; the closing bracket takes the
           place of the missing leading comma. *)
        go 0 items + newline_width indent + 1
    | Assoc fields ->
        let rec go acc = function
          | [] -> acc
          | (k, v) :: rest ->
              go
                (acc + 1 + newline_width (indent + 2) + escaped_width k + String.length colon
               + size (indent + 2) v)
                rest
        in
        go 0 fields + newline_width indent + 1
  in
  let total = size 0 t + if minify then 0 else 1 in
  let b = Bytes.create total in
  let newline pos indent =
    if minify then pos
    else begin
      Bytes.set b pos '\n';
      Bytes.fill b (pos + 1) indent ' ';
      pos + 1 + indent
    end
  in
  let rec write pos indent = function
    | Null -> put_string b pos "null"
    | Bool v -> put_string b pos (if v then "true" else "false")
    | Int i -> put_int b pos i
    | Float f ->
        if Float.is_finite f then put_string b pos (float_str f)
        else put_escaped b pos (nonfinite_name f)
    | String s -> put_escaped b pos s
    | List [] -> put_string b pos "[]"
    | Assoc [] -> put_string b pos "{}"
    | List items ->
        let rec go pos sep = function
          | [] -> pos
          | v :: rest ->
              Bytes.set b pos sep;
              let pos = newline (pos + 1) (indent + 2) in
              go (write pos (indent + 2) v) ',' rest
        in
        let pos = newline (go pos '[' items) indent in
        Bytes.set b pos ']';
        pos + 1
    | Assoc fields ->
        let rec go pos sep = function
          | [] -> pos
          | (k, v) :: rest ->
              Bytes.set b pos sep;
              let pos = newline (pos + 1) (indent + 2) in
              let pos = put_string b (put_escaped b pos k) colon in
              go (write pos (indent + 2) v) ',' rest
        in
        let pos = newline (go pos '{' fields) indent in
        Bytes.set b pos '}';
        pos + 1
  in
  let pos = write 0 0 t in
  let pos = newline pos 0 in
  assert (pos = total);
  Bytes.unsafe_to_string b

(* Recursive-descent parser over a byte offset. *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else error ("invalid literal, expected " ^ word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> error "invalid \\u escape"
  in
  let utf8_add b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp >= 0xD800 && cp <= 0xDFFF then error "unsupported surrogate escape"
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' ->
              advance ();
              Buffer.add_char b '"';
              loop ()
          | Some '\\' ->
              advance ();
              Buffer.add_char b '\\';
              loop ()
          | Some '/' ->
              advance ();
              Buffer.add_char b '/';
              loop ()
          | Some 'n' ->
              advance ();
              Buffer.add_char b '\n';
              loop ()
          | Some 'r' ->
              advance ();
              Buffer.add_char b '\r';
              loop ()
          | Some 't' ->
              advance ();
              Buffer.add_char b '\t';
              loop ()
          | Some 'b' ->
              advance ();
              Buffer.add_char b '\b';
              loop ()
          | Some 'f' ->
              advance ();
              Buffer.add_char b '\012';
              loop ()
          | Some 'u' ->
              advance ();
              utf8_add b (parse_hex4 ());
              loop ()
          | _ -> error "invalid escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error "invalid number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error "invalid number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Assoc []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Assoc (List.rev !fields)
        end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing content after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let parse_exn s = match parse s with Ok v -> v | Error msg -> invalid_arg msg

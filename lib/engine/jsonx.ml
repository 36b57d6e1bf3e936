type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

(* One top-level object rendered with each field on its own line, so
   shell tooling (the CI gate greps the summary) can match scalar
   fields without a JSON parser. *)
let to_multiline_string = function
  | Obj kvs ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (Printf.sprintf "  \"%s\": " (escape k));
          match v with
          | List xs ->
              Buffer.add_string buf "[\n";
              List.iteri
                (fun j x ->
                  if j > 0 then Buffer.add_string buf ",\n";
                  Buffer.add_string buf "    ";
                  emit buf x)
                xs;
              Buffer.add_string buf "\n  ]"
          | v -> emit buf v)
        kvs;
      Buffer.add_string buf "\n}\n";
      Buffer.contents buf
  | j -> to_string j ^ "\n"

(* ------------------------------------------------------------------ *)
(* Parsing.  The serve protocol (lib/serve) carries requests and
   responses as JSON frames, so the engine needs to read JSON back, not
   just emit it.  Recursive descent over the full string; errors carry
   the byte offset.  Numbers without '.', 'e' or 'E' parse as [Int]
   (falling back to [Float] on overflow), everything else as [Float] —
   the inverse of {!emit}'s convention. *)

exception Parse_error of int * string

let parse_error pos msg = raise (Parse_error (pos, msg))

(* Nesting bound: the parser recurses once per container level, so an
   adversarial payload of a few hundred KB of '[' would otherwise turn
   into a [Stack_overflow] — which is not a [Parse_error] and would
   escape the daemon's per-request error handling.  No legitimate
   request comes anywhere near this deep. *)
let max_depth = 512

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> parse_error !pos (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
      pos := !pos + l;
      v
    end
    else parse_error !pos (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then parse_error !pos "truncated \\u escape";
    let h = String.sub s !pos 4 in
    match int_of_string_opt ("0x" ^ h) with
    | Some c ->
        pos := !pos + 4;
        c
    | None -> parse_error !pos "bad \\u escape"
  in
  (* encode a Unicode scalar value as UTF-8 *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then parse_error !pos "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then parse_error !pos "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char buf '"'; loop ()
          | '\\' -> Buffer.add_char buf '\\'; loop ()
          | '/' -> Buffer.add_char buf '/'; loop ()
          | 'b' -> Buffer.add_char buf '\b'; loop ()
          | 'f' -> Buffer.add_char buf '\012'; loop ()
          | 'n' -> Buffer.add_char buf '\n'; loop ()
          | 'r' -> Buffer.add_char buf '\r'; loop ()
          | 't' -> Buffer.add_char buf '\t'; loop ()
          | 'u' ->
              let u = hex4 () in
              let u =
                (* surrogate pair: combine when the low half follows *)
                if u >= 0xD800 && u <= 0xDBFF
                   && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                  else parse_error !pos "unpaired surrogate"
                end
                else u
              in
              add_utf8 buf u;
              loop ()
          | _ -> parse_error (!pos - 1) "bad escape")
      | c -> Buffer.add_char buf c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> parse_error start "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> parse_error start "bad number")
  in
  let rec parse_value depth =
    if depth > max_depth then parse_error !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> parse_error !pos "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> parse_error !pos "expected ',' or ']'"
          in
          elements []
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error !pos (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then parse_error !pos "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "json parse error at byte %d: %s" p msg)
  | exception Stack_overflow ->
      (* defense in depth behind [max_depth]: a parser bug must never
         take down a daemon that feeds it untrusted frames *)
      Error "json parse error: nesting too deep"

(* ------------------------------------------------------------------ *)
(* Accessors: shallow, total — protocol decoding reads fields through
   these and treats [None] as a malformed request, never an exception. *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let write_file path content =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc content)

let write_lines path jsons =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter
        (fun j ->
          output_string oc (to_string j);
          output_char oc '\n')
        jsons)

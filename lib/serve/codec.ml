(* Binary wire format of [wfc serve].

   Frame  = u32-BE payload length, then the payload (cap {!max_frame}).
   Payload = u8 version, i64 request id, u8 tag, tag-specific body.

   A connection speaks binary iff its first byte is 0x00: payload lengths
   are capped well under 2^24, so a frame header always starts with a zero
   byte, while every text-mode command starts with a letter.

   The decode side NEVER raises — arbitrary bytes yield [Error _] (the same
   contract as [Wfc_io.Workflow_io] sniffing, and what the fuzz battery in
   test_serve pins). Every length and count is validated against the bytes
   actually remaining, so hostile counts cannot allocate or loop. *)

module P = Wfc_workflows.Pegasus
module CM = Wfc_workflows.Cost_model
module Lin = Wfc_dag.Linearize
module H = Wfc_core.Heuristics
module E = Wfc_core.Eval_engine
open Protocol

let version = 1
let default_max_frame = 16 * 1024 * 1024

exception Fail of string

let fail fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

(* ---- writer ----------------------------------------------------------- *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_i64 b v = Buffer.add_int64_be b v
let w_int b v = w_i64 b (Int64.of_int v)
let w_f64 b v = w_i64 b (Int64.bits_of_float v)

let w_u32 b v =
  if v < 0 || v > 0xffff_ffff then fail "length out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_opt w b = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      w b v

let w_list w b xs =
  w_u32 b (List.length xs);
  List.iter (w b) xs

(* ---- reader ----------------------------------------------------------- *)

type rd = { s : string; mutable pos : int }

let remaining r = String.length r.s - r.pos
let need r n = if n < 0 || remaining r < n then fail "truncated payload"

let r_u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_i64 r =
  need r 8;
  let v = String.get_int64_be r.s r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r =
  let v = r_i64 r in
  if v < Int64.of_int min_int || v > Int64.of_int max_int then
    fail "integer out of range";
  Int64.to_int v

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_be r.s r.pos) land 0xffff_ffff in
  r.pos <- r.pos + 4;
  v

let r_string r =
  let n = r_u32 r in
  need r n;
  let s = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  s

let r_opt f r =
  match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | b -> fail "bad option byte %d" b

let r_list f r =
  let n = r_u32 r in
  (* every element costs at least one byte, so a count beyond the remaining
     bytes is corrupt — reject before allocating *)
  if n > remaining r then fail "list count %d exceeds payload" n;
  List.init n (fun _ -> f r)

(* ---- enums ------------------------------------------------------------ *)

let enum_w name to_s b v = ignore name; w_string b (to_s v)

let enum_r name of_s r =
  let s = r_string r in
  match of_s s with Some v -> v | None -> fail "unknown %s %S" name s

let w_family b v = enum_w "family" P.family_name b v
let r_family r = enum_r "workflow family" P.family_of_string r
let w_lin b v = enum_w "lin" Lin.strategy_name b v
let r_lin r = enum_r "linearization" Lin.strategy_of_string r
let w_ckpt b v = enum_w "ckpt" H.ckpt_strategy_name b v
let r_ckpt r = enum_r "checkpoint strategy" H.ckpt_strategy_of_string r
let w_backend b v = enum_w "engine" E.backend_name b v
let r_backend r = enum_r "engine" E.backend_of_string r

let w_cost b = function
  | CM.Proportional f ->
      w_u8 b 1;
      w_f64 b f
  | CM.Constant f ->
      w_u8 b 2;
      w_f64 b f

let r_cost r =
  match r_u8 r with
  | 1 -> CM.Proportional (r_f64 r)
  | 2 -> CM.Constant (r_f64 r)
  | t -> fail "unknown cost tag %d" t

let w_error_code b c = w_string b (error_code_name c)
let r_error_code r = enum_r "error code" error_code_of_string r

(* ---- request body ----------------------------------------------------- *)

let w_spec b = function
  | Generated { family; n; seed; cost } ->
      w_u8 b 1;
      w_family b family;
      w_int b n;
      w_int b seed;
      w_cost b cost
  | Inline { name; text; cost } ->
      w_u8 b 2;
      w_string b name;
      w_string b text;
      w_cost b cost
  | File { path; cost } ->
      w_u8 b 3;
      w_string b path;
      w_cost b cost

let r_spec r =
  match r_u8 r with
  | 1 ->
      let family = r_family r in
      let n = r_int r in
      let seed = r_int r in
      let cost = r_cost r in
      Generated { family; n; seed; cost }
  | 2 ->
      let name = r_string r in
      let text = r_string r in
      let cost = r_cost r in
      Inline { name; text; cost }
  | 3 ->
      let path = r_string r in
      let cost = r_cost r in
      File { path; cost }
  | t -> fail "unknown workflow tag %d" t

let w_solve b p =
  w_spec b p.workflow;
  w_f64 b p.mtbf;
  w_f64 b p.downtime;
  w_lin b p.lin;
  w_ckpt b p.ckpt;
  w_int b p.grid;
  w_backend b p.backend;
  w_opt w_f64 b p.deadline

let r_solve r =
  let workflow = r_spec r in
  let mtbf = r_f64 r in
  let downtime = r_f64 r in
  let lin = r_lin r in
  let ckpt = r_ckpt r in
  let grid = r_int r in
  let backend = r_backend r in
  let deadline = r_opt r_f64 r in
  { workflow; mtbf; downtime; lin; ckpt; grid; backend; deadline }

let w_request b = function
  | Ping -> w_u8 b 1
  | Solve p ->
      w_u8 b 2;
      w_solve b p
  | Simulate { params; runs; mcseed } ->
      w_u8 b 3;
      w_solve b params;
      w_int b runs;
      w_int b mcseed
  | Adapt { params; true_mtbf; traces; mcseed } ->
      w_u8 b 4;
      w_solve b params;
      w_f64 b true_mtbf;
      w_int b traces;
      w_int b mcseed
  | Corpus { dir; ratios; grid } ->
      w_u8 b 5;
      w_string b dir;
      w_list w_f64 b ratios;
      w_int b grid;
      w_backend b E.Flat
  | Stats -> w_u8 b 6
  | Sleep s ->
      w_u8 b 7;
      w_f64 b s
  | Shutdown -> w_u8 b 8

let r_request r =
  match r_u8 r with
  | 1 -> Ping
  | 2 -> Solve (r_solve r)
  | 3 ->
      let params = r_solve r in
      let runs = r_int r in
      let mcseed = r_int r in
      Simulate { params; runs; mcseed }
  | 4 ->
      let params = r_solve r in
      let true_mtbf = r_f64 r in
      let traces = r_int r in
      let mcseed = r_int r in
      Adapt { params; true_mtbf; traces; mcseed }
  | 5 ->
      let dir = r_string r in
      let ratios = r_list r_f64 r in
      let grid = r_int r in
      let E.Flat = r_backend r in
      Corpus { dir; ratios; grid }
  | 6 -> Stats
  | 7 -> Sleep (r_f64 r)
  | 8 -> Shutdown
  | t -> fail "unknown request tag %d" t

(* ---- response body ---------------------------------------------------- *)

let w_solved b s =
  w_string b s.source;
  w_int b s.n_tasks;
  w_string b s.heuristic;
  w_string b s.tier;
  w_f64 b s.makespan;
  w_f64 b s.ratio;
  w_int b s.n_ckpt;
  w_list w_int b s.ckpt_tasks;
  w_int b s.evaluations

let r_solved r =
  let source = r_string r in
  let n_tasks = r_int r in
  let heuristic = r_string r in
  let tier = r_string r in
  let makespan = r_f64 r in
  let ratio = r_f64 r in
  let n_ckpt = r_int r in
  let ckpt_tasks = r_list r_int r in
  let evaluations = r_int r in
  {
    source; n_tasks; heuristic; tier; makespan; ratio; n_ckpt; ckpt_tasks;
    evaluations;
  }

let w_policy b (name, mean, cvar, worst) =
  w_string b name;
  w_f64 b mean;
  w_f64 b cvar;
  w_f64 b worst

let r_policy r =
  let name = r_string r in
  let mean = r_f64 r in
  let cvar = r_f64 r in
  let worst = r_f64 r in
  (name, mean, cvar, worst)

let w_row b (k, v) =
  w_string b k;
  w_string b v

let r_row r =
  let k = r_string r in
  let v = r_string r in
  (k, v)

let w_response b = function
  | Pong -> w_u8 b 1
  | Solved s ->
      w_u8 b 2;
      w_solved b s
  | Simulated s ->
      w_u8 b 3;
      w_solved b s.solved;
      w_int b s.runs;
      w_f64 b s.sim_mean;
      w_f64 b s.ci_lo;
      w_f64 b s.ci_hi;
      w_f64 b s.failures_mean
  | Adapted a ->
      w_u8 b 4;
      w_string b a.asource;
      w_string b a.winner;
      w_list w_policy b a.policies
  | Corpus_report { instances; scenarios; text } ->
      w_u8 b 5;
      w_int b instances;
      w_int b scenarios;
      w_string b text
  | Stats_report rows ->
      w_u8 b 6;
      w_list w_row b rows
  | Slept s ->
      w_u8 b 7;
      w_f64 b s
  | Bye -> w_u8 b 8
  | Error { code; message } ->
      w_u8 b 9;
      w_error_code b code;
      w_string b message

let r_response r =
  match r_u8 r with
  | 1 -> Pong
  | 2 -> Solved (r_solved r)
  | 3 ->
      let solved = r_solved r in
      let runs = r_int r in
      let sim_mean = r_f64 r in
      let ci_lo = r_f64 r in
      let ci_hi = r_f64 r in
      let failures_mean = r_f64 r in
      Simulated { solved; runs; sim_mean; ci_lo; ci_hi; failures_mean }
  | 4 ->
      let asource = r_string r in
      let winner = r_string r in
      let policies = r_list r_policy r in
      Adapted { asource; winner; policies }
  | 5 ->
      let instances = r_int r in
      let scenarios = r_int r in
      let text = r_string r in
      Corpus_report { instances; scenarios; text }
  | 6 -> Stats_report (r_list r_row r)
  | 7 -> Slept (r_f64 r)
  | 8 -> Bye
  | 9 ->
      let code = r_error_code r in
      let message = r_string r in
      Error { code; message }
  | t -> fail "unknown response tag %d" t

(* ---- payloads --------------------------------------------------------- *)

let encode header body =
  let b = Buffer.create 256 in
  w_u8 b version;
  w_i64 b header;
  body b;
  Buffer.contents b

let encode_request ~id req = encode id (fun b -> w_request b req)
let encode_response ~id resp = encode id (fun b -> w_response b resp)

let decode body s =
  try
    let r = { s; pos = 0 } in
    let v = r_u8 r in
    if v <> version then fail "unsupported protocol version %d" v;
    let id = r_i64 r in
    let x = body r in
    if remaining r <> 0 then fail "%d trailing bytes" (remaining r);
    Ok (id, x)
  with
  | Fail m -> Stdlib.Error m
  | exn -> Stdlib.Error (Printexc.to_string exn)

let decode_request s = decode r_request s
let decode_response s = decode r_response s

(* ---- framing ---------------------------------------------------------- *)

let frame payload =
  let n = String.length payload in
  let b = Buffer.create (n + 4) in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.contents b

let read_frame ?(max_frame = default_max_frame) read =
  (* [read buf off len] follows the Unix.read contract: 0 means EOF. EOF on
     the very first header byte is a clean end of stream; anywhere else the
     frame is truncated. Read errors count as truncation too. *)
  let fill buf len ~eof_ok =
    let rec go off =
      if off >= len then `Done
      else
        match read buf off (len - off) with
        | 0 -> if eof_ok && off = 0 then `Eof else `Short
        | n when n > 0 && n <= len - off -> go (off + n)
        | _ -> `Short
        | exception _ -> `Short
    in
    go 0
  in
  let hdr = Bytes.create 4 in
  match fill hdr 4 ~eof_ok:true with
  | `Eof -> Ok None
  | `Short -> Stdlib.Error "truncated frame header"
  | `Done -> (
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xffff_ffff in
      if len > max_frame then
        Stdlib.Error (Printf.sprintf "frame too large (%d bytes, cap %d)" len max_frame)
      else
        let payload = Bytes.create len in
        match fill payload len ~eof_ok:false with
        | `Done -> Ok (Some (Bytes.unsafe_to_string payload))
        | `Eof | `Short -> Stdlib.Error "truncated frame payload")

let reader_of_string s =
  let pos = ref 0 in
  fun buf off len ->
    let n = Int.min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n

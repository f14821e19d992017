(* Client side of [wfc request]: connect (with retry, so cram scripts can
   race the daemon startup), ship a batch of text-mode lines over one
   connection, collect the response blocks, and return them sorted by
   request id — pipelined responses may complete out of order on the
   server's workers, sorting makes the output deterministic.

   In binary mode the same lines are parsed locally, encoded as frames and
   the decoded responses rendered with the same [Protocol.render_response],
   so text and binary transcripts are byte-comparable — which is exactly
   how the cram suite pins codec/daemon agreement. *)

module Pr = Protocol

type reply = { rid : int64; body : (string list, string) result }
(* [Error] carries "CODE MESSAGE" from an error response. *)

(* Retry schedule: capped exponential backoff, deterministic (no jitter —
   clients here race one local daemon's startup, not a thundering herd).
   Sleeps are 50 ms, 100 ms, 200 ms, 400 ms, then 800 ms flat until the
   [retry] budget is spent; attempts always total at most [retry] seconds
   of sleeping, the last sleep truncated to whatever budget remains. *)
let backoff_first = 0.05
let backoff_cap = 0.8

let connect ?(retry = 5.) target =
  let addr = Sock_io.sockaddr target in
  let rec go ~sleep left =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when left > 0. ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let nap = Float.min sleep left in
        Unix.sleepf nap;
        go ~sleep:(Float.min backoff_cap (2. *. sleep)) (left -. nap)
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot connect to %s: %s" (Sock_io.describe target)
             (Unix.error_message e))
  in
  go ~sleep:backoff_first retry

let by_rid a b = Int64.compare a.rid b.rid

(* ---- text transport ---------------------------------------------------- *)

let split2 s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let text_exchange fd lines =
  Sock_io.write_string fd
    (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let lr = Sock_io.reader fd in
  (* a well-formed body ends with the "." terminator line; EOF before it
     means the connection died mid-response — that must surface as a
     structured error, never as a silently shortened Ok body *)
  let rec read_body acc =
    match Sock_io.read_line lr with
    | None -> Error ()
    | Some "." -> Ok (List.rev acc)
    | Some l -> read_body (l :: acc)
  in
  let rec go acc =
    match Sock_io.read_line lr with
    | None -> List.rev acc
    | Some header -> (
        match split2 header with
        | "ok", rest ->
            let rid, _ = split2 rest in
            let rid = Option.value ~default:0L (Int64.of_string_opt rid) in
            let body =
              match read_body [] with
              | Ok body -> Ok body
              | Error () -> Error "truncated response (connection lost mid-body)"
            in
            go ({ rid; body } :: acc)
        | "error", rest ->
            let rid, detail = split2 rest in
            let rid = Option.value ~default:0L (Int64.of_string_opt rid) in
            go ({ rid; body = Error detail } :: acc)
        | _ ->
            (* not a header we know: surface it rather than hide it *)
            go ({ rid = 0L; body = Error ("garbled response: " ^ header) } :: acc))
  in
  List.sort by_rid (go [])

(* ---- binary transport -------------------------------------------------- *)

let binary_exchange fd lines =
  (* parse locally so encode/decode gets exercised end to end *)
  let parsed =
    List.mapi
      (fun i line -> (Int64.of_int (i + 1), Pr.request_of_line line))
      lines
  in
  let local, sendable =
    List.partition_map
      (fun (rid, r) ->
        match r with
        | Error msg ->
            Left { rid; body = Error ("bad-request " ^ msg) }
        | Ok req -> Right (rid, req))
      parsed
  in
  List.iter
    (fun (rid, req) ->
      Sock_io.write_string fd (Codec.frame (Codec.encode_request ~id:rid req)))
    sendable;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let rec go acc =
    match Codec.read_frame (Unix.read fd) with
    | Ok None -> List.rev acc
    | Error msg -> List.rev ({ rid = 0L; body = Error ("framing " ^ msg) } :: acc)
    | Ok (Some payload) -> (
        match Codec.decode_response payload with
        | Error msg ->
            go ({ rid = 0L; body = Error ("decode " ^ msg) } :: acc)
        | Ok (rid, Pr.Error { code; message }) ->
            go
              ({ rid; body = Error (Pr.error_code_name code ^ " " ^ message) }
              :: acc)
        | Ok (rid, resp) ->
            go ({ rid; body = Ok (Pr.render_response resp) } :: acc))
  in
  List.sort by_rid (go [] @ local)

let exchange ?(binary = false) fd lines =
  if binary then binary_exchange fd lines else text_exchange fd lines

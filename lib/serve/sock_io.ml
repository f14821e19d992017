(* Socket I/O shared by the daemon, the client and the chaos proxy. *)

type listen = Tcp of int | Unix_sock of string

let sockaddr = function
  | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  | Unix_sock path -> Unix.ADDR_UNIX path

let describe = function
  | Tcp port -> Printf.sprintf "127.0.0.1:%d" port
  | Unix_sock path -> path

let listen_tcp ~backlog port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (sockaddr (Tcp port));
  Unix.listen fd backlog;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> (fd, p)
  | _ -> (fd, port)

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

let write_string fd s =
  write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader fd = { fd; buf = Bytes.create 8192; pos = 0; len = 0 }

let peek r =
  if r.pos >= r.len then begin
    r.len <- Unix.read r.fd r.buf 0 (Bytes.length r.buf);
    r.pos <- 0
  end;
  if r.len = 0 then None else Some (Bytes.get r.buf r.pos)

let read r buf off len =
  if r.pos < r.len then begin
    let n = Int.min len (r.len - r.pos) in
    Bytes.blit r.buf r.pos buf off n;
    r.pos <- r.pos + n;
    n
  end
  else Unix.read r.fd buf off len

let read_line r =
  let b = Buffer.create 80 in
  let rec go () =
    match peek r with
    | None -> if Buffer.length b = 0 then None else Some (Buffer.contents b)
    | Some c ->
        r.pos <- r.pos + 1;
        if c = '\n' then Some (Buffer.contents b)
        else begin
          if c <> '\r' then Buffer.add_char b c;
          go ()
        end
  in
  go ()

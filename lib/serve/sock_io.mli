(** Socket I/O shared by the daemon ({!Server}), the client ({!Client})
    and the fault-injecting proxy ({!Chaos}). Unix errors propagate. *)

type listen = Tcp of int | Unix_sock of string
(** A local endpoint: TCP on 127.0.0.1, or a Unix-socket path. *)

val sockaddr : listen -> Unix.sockaddr

val describe : listen -> string
(** ["127.0.0.1:PORT"] or the socket path. *)

val listen_tcp : backlog:int -> int -> Unix.file_descr * int
(** A listening socket on 127.0.0.1 and its port (port 0 picks one). *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [write_all fd b off len] writes [len] bytes of [b] from [off]. *)

val write_string : Unix.file_descr -> string -> unit

type reader
(** A buffered reader over a descriptor. *)

val reader : Unix.file_descr -> reader

val peek : reader -> char option
(** The next byte, left unread; [None] at end of stream. *)

val read : reader -> Bytes.t -> int -> int -> int
(** Buffered bytes first, then the descriptor: the [Unix.read] contract of
    {!Codec.read_frame}. *)

val read_line : reader -> string option
(** The next line without its ['\n'], carriage returns dropped; a last
    unterminated line is returned as is; [None] at end of stream. *)

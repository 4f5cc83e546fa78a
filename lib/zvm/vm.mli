(** The ZVM interpreter.

    Executes machine code directly from {!Memory} — instructions are
    decoded at the program counter on every step — so a rewritten binary's
    actual layout (reference jumps at pinned addresses, sleds, chained
    hops, relocated dollops) is what runs, not an idealized IR.

    The interpreter keeps the three measurements the CGC evaluation
    scores: retired instructions, weighted {e cycles} (the execution-time
    proxy; see the cost model below), and peak touched pages (the MaxRSS
    proxy).

    Cost model: every instruction costs 1 cycle; memory accesses,
    push/pop, call/ret and taken branches add 1; [mul] adds 2; [div]/[mod]
    add 10; system calls add 30.  The absolute numbers are arbitrary but
    fixed, so overhead {e ratios} between original and rewritten binaries
    are meaningful. *)

type fault =
  | Decode_fault of { pc : int; error : Decode.error }
  | Mem_fault of { pc : int; addr : int }  (** unmapped access *)
  | Div_fault of { pc : int }
  | Bad_syscall of { pc : int; number : int }
  | Fuel_exhausted  (** instruction budget hit; treated as a hang *)

type stop =
  | Halted  (** [halt] instruction *)
  | Exited of int  (** [terminate] system call with this status *)
  | Fault of fault

type t

type result = {
  stop : stop;
  output : string;  (** everything the program transmitted *)
  syscalls : int list;
      (** every system-call number the program issued, in order, including
          a bad one it faulted on *)
  insns : int;  (** retired instructions *)
  cycles : int;  (** weighted cycles (execution-time proxy) *)
  max_rss_pages : int;  (** peak touched 4-KiB pages *)
}

val create :
  ?stack_top:int ->
  ?stack_pages:int ->
  ?alloc_base:int ->
  ?random_seed:int ->
  mem:Memory.t ->
  entry:int ->
  input:string ->
  unit ->
  t
(** Build a VM over pre-loaded memory.  Maps [stack_pages] pages of stack
    ending at [stack_top] (defaults: top [0xbfff_f000], 64 pages), sets
    [sp] to [stack_top], resets residency accounting so only execution
    counts, and queues [input] for the [receive] system call.  [alloc_base]
    is where [allocate] hands out pages (default [0x6000_0000]);
    [random_seed] fixes the [random] system call's stream. *)

val run : ?fuel:int -> ?on_step:(pc:int -> Insn.t -> unit) -> t -> result
(** Execute until the program stops or [fuel] instructions have retired
    (default 20 million).  [on_step] is called before each instruction
    executes — the debugging trace hook. *)

val reg : t -> Reg.t -> int
(** Register contents (32-bit unsigned view). *)

val set_reg : t -> Reg.t -> int -> unit

val pc : t -> int

val mem : t -> Memory.t
(** The VM's memory, for inspection by tests and tools. *)

val pp_stop : Format.formatter -> stop -> unit
val stop_to_string : stop -> string

val equal_stop : stop -> stop -> bool

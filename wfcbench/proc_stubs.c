/* wait4(2) for the benchmark: the exit status together with the child's
   peak resident set size, which OCaml's Unix library does not expose; and
   sched_setaffinity(2), to keep a run on one CPU. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Returns (pid, code, maxrss_kb): pid 0 when [nohang] and the child is still
   running; code is the exit status, or -signal when it was killed. */
CAMLprim value wfcbench_wait4(value v_pid, value v_nohang)
{
  CAMLparam2(v_pid, v_nohang);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(v_pid);
  int flags = Bool_val(v_nohang) ? WNOHANG : 0;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, flags, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_int(r));
  if (r == 0) {
    Store_field(res, 1, Val_int(0));
    Store_field(res, 2, Val_long(0));
  } else {
    int code = WIFEXITED(status) ? WEXITSTATUS(status)
             : WIFSIGNALED(status) ? -WTERMSIG(status) : -1;
    Store_field(res, 1, Val_int(code));
    Store_field(res, 2, Val_long(ru.ru_maxrss));
  }
  CAMLreturn(res);
}

CAMLprim value wfcbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* Pin the calling thread, and so every process it spawns later, to the
   highest-numbered CPU it may run on. Returns that CPU, or -1 when the
   affinity cannot be read or set (the run then goes on unpinned). */
CAMLprim value wfcbench_pin_one_cpu(value unit)
{
  (void)unit;
  cpu_set_t set;
  int cpu = -1;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) cpu = c;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}

/* Pin a process to one CPU: the daemon and the generator each get their
   own core, so the scheduler cannot stack the ping-pong onto one. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value secpol_bench_pin(value pid, value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(Int_val(pid), sizeof set, &set) == 0);
}

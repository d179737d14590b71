/* Pin the calling process to the CPU it is running on.  Processes it
   starts afterwards inherit the mask. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* The CPU pinned to, or -1 when the kernel would not say or refused. */
value bench_pin_to_current_cpu(value unit)
{
  cpu_set_t set;
  int cpu = sched_getcpu();
  (void)unit;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}

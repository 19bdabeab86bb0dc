/* Memory-ordering primitives the OCaml 5.1 standard library lacks.
 *
 * - twoplsf_store_sc: a sequentially consistent store of an immediate
 *   into an int array element.  The old and new values are both
 *   immediates, so no write barrier is needed and the stub is noalloc.
 * - twoplsf_fence: a sequentially consistent fence.
 * - twoplsf_membarrier: the heavy side of an asymmetric Dekker pair
 *   (membarrier(2), MEMBARRIER_CMD_PRIVATE_EXPEDITED): when it returns,
 *   every thread of the process that was running has executed a full
 *   memory barrier, so a plain store it made before that point is
 *   visible to the caller's later loads.
 *
 * Each primitive does nothing extra while the calling domain is the only
 * one running, as the runtime's own caml_atomic_exchange does: no other
 * domain exists to reorder against, and a domain spawned later starts
 * after a synchronising hand-off.  twoplsf_membarrier then returns 0 so
 * the caller knows no barrier was issued.  Once registration has
 * succeeded the barrier cannot fail; if it ever did, the ordering the
 * caller relies on would be gone, so that is a fatal error.
 */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/misc.h>
#include <time.h>

#ifdef __linux__
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

/* Exported by the OCaml 5 runtime (runtime/domain.c); caml_domain_alone()
 * in <caml/domain.h> reads it the same way, but that header is internal.
 * Weak, so a runtime without it links and always takes the ordered path. */
extern uintnat caml_num_domains_running __attribute__((weak));

static inline int domain_alone(void)
{
  return &caml_num_domains_running != NULL
         && __atomic_load_n(&caml_num_domains_running, __ATOMIC_ACQUIRE) == 1;
}

CAMLprim value twoplsf_store_sc(value arr, value idx, value v)
{
  value *cell = (value *)&Field(arr, Long_val(idx));
  if (domain_alone())
    *cell = v;
  else
    __atomic_store_n(cell, v, __ATOMIC_SEQ_CST);
  return Val_unit;
}

CAMLprim value twoplsf_fence(value unit)
{
  (void)unit;
  if (!domain_alone())
    __atomic_thread_fence(__ATOMIC_SEQ_CST);
  return Val_unit;
}

/* Registers the process for expedited private barriers.  Returns false
 * when the kernel lacks membarrier (ENOSYS), refuses it (EPERM, e.g. a
 * seccomp filter) or does not know the command (EINVAL). */
CAMLprim value twoplsf_membarrier_register(value unit)
{
  (void)unit;
#if defined(__linux__) && defined(SYS_membarrier)
  return Val_bool(syscall(SYS_membarrier,
                          MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED, 0, 0)
                  == 0);
#else
  return Val_false;
#endif
}

/* Returns the barrier's duration in ns (at least 1), or 0 when none was
 * issued. */
CAMLprim value twoplsf_membarrier(value unit)
{
  (void)unit;
#if defined(__linux__) && defined(SYS_membarrier)
  struct timespec a, b;
  intnat ns;
  if (domain_alone())
    return Val_long(0);
  clock_gettime(CLOCK_MONOTONIC, &a);
  if (syscall(SYS_membarrier, MEMBARRIER_CMD_PRIVATE_EXPEDITED, 0, 0) != 0)
    caml_fatal_error("membarrier(PRIVATE_EXPEDITED) failed after registration");
  clock_gettime(CLOCK_MONOTONIC, &b);
  ns = (intnat)(b.tv_sec - a.tv_sec) * 1000000000 + (b.tv_nsec - a.tv_nsec);
  return Val_long(ns > 0 ? ns : 1);
#else
  return Val_long(0);
#endif
}

#include <cstdlib>
#include <cstring>

#include "kernels/kernels.hpp"
#include "util/logging.hpp"

namespace pecan::kernels {

namespace baseline {
extern const KernelTable table;
}
#if defined(PECAN_ISA_X86_VARIANTS)
namespace avx2 {
extern const KernelTable table;
}
namespace avx512 {
extern const KernelTable table;
}
#endif

namespace {

constexpr Isa kAll[] = {Isa::Baseline, Isa::Avx2, Isa::Avx512};

/// Whether the host CPU (and OS register-state support, which the builtin
/// checks through XGETBV) runs everything the variant's -m flags enable.
bool host_runs(Isa isa) {
#if defined(PECAN_ISA_X86_VARIANTS)
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
  switch (isa) {
    case Isa::Baseline: return true;
    case Isa::Avx2: return avx2;
    case Isa::Avx512:
      return avx2 && __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return isa == Isa::Baseline;
#endif
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Baseline: return "baseline";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
  }
  return "baseline";
}

const KernelTable* table_for(Isa isa) {
  if (!host_runs(isa)) return nullptr;
  switch (isa) {
    case Isa::Baseline: return &baseline::table;
#if defined(PECAN_ISA_X86_VARIANTS)
    case Isa::Avx2: return &avx2::table;
    case Isa::Avx512: return &avx512::table;
#else
    default: return nullptr;
#endif
  }
  return nullptr;
}

Isa resolve_isa(const char* requested) {
  Isa best = Isa::Baseline;
  for (const Isa isa : kAll) {
    if (table_for(isa)) best = isa;
  }
  if (!requested || !*requested) return best;
  for (const Isa isa : kAll) {
    if (std::strcmp(requested, isa_name(isa)) != 0) continue;
    // Walk down from the request to the first variant this host runs;
    // baseline always runs.
    int level = static_cast<int>(isa);
    while (!table_for(static_cast<Isa>(level))) --level;
    return static_cast<Isa>(level);
  }
  return best;
}

const KernelTable& active() {
  static const KernelTable& table = []() -> const KernelTable& {
    const char* requested = std::getenv("PECAN_ISA");
    const Isa isa = resolve_isa(requested);
    if (!requested || !*requested) {
      PECAN_LOG_INFO << "kernels: isa=" << isa_name(isa) << " (best this CPU supports)";
    } else if (std::strcmp(requested, isa_name(isa)) == 0) {
      PECAN_LOG_INFO << "kernels: isa=" << isa_name(isa) << " (PECAN_ISA)";
    } else {
      PECAN_LOG_WARN << "kernels: isa=" << isa_name(isa) << " (fallback: PECAN_ISA=" << requested
                     << " is unknown or not supported by this CPU; expected baseline | avx2 | "
                        "avx512)";
    }
    return *table_for(isa);
  }();
  return table;
}

}  // namespace pecan::kernels

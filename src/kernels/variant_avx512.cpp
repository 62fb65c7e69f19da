// The avx512 kernel variant: kernels_impl.hpp compiled with this TU's ISA flags
// (CMakeLists.txt) into namespace pecan::kernels::avx512.
#define PECAN_KERNELS_NS avx512
#define PECAN_KERNELS_ISA Isa::Avx512
#include "kernels/kernels_impl.hpp"

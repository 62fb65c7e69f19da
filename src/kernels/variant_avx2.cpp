// The avx2 kernel variant: kernels_impl.hpp compiled with this TU's ISA flags
// (CMakeLists.txt) into namespace pecan::kernels::avx2.
#define PECAN_KERNELS_NS avx2
#define PECAN_KERNELS_ISA Isa::Avx2
#include "kernels/kernels_impl.hpp"

// The baseline kernel variant: kernels_impl.hpp compiled with this TU's ISA flags
// (CMakeLists.txt) into namespace pecan::kernels::baseline.
#define PECAN_KERNELS_NS baseline
#define PECAN_KERNELS_ISA Isa::Baseline
#include "kernels/kernels_impl.hpp"

//===- pcode/PCode.cpp ----------------------------------------------------==//
//
// Explicit instantiation of the copy-and-patch VCODE machine over the
// stencil-backed emitter.
//
//===----------------------------------------------------------------------===//

#include "pcode/PCode.h"

namespace tcc {
namespace vcode {

template class VCodeT<pcode::StencilAssembler>;

} // namespace vcode
} // namespace tcc

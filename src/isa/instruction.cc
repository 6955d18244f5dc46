#include "isa/instruction.hh"

#include <sstream>

namespace flywheel {

const char *
opClassName(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu: return "IALU";
      case OpClass::IntMul: return "IMUL";
      case OpClass::IntDiv: return "IDIV";
      case OpClass::FpAdd:  return "FADD";
      case OpClass::FpMul:  return "FMUL";
      case OpClass::FpDiv:  return "FDIV";
      case OpClass::Load:   return "LD";
      case OpClass::Store:  return "ST";
      case OpClass::Branch: return "BR";
      case OpClass::Nop:    return "NOP";
    }
    return "???";
}

std::string
DynInst::toString() const
{
    std::ostringstream os;
    os << "[" << seq << "] pc=0x" << std::hex << pc << std::dec << " "
       << opClassName(op);
    if (dest != kNoArchReg)
        os << " r" << dest << " <-";
    if (src1 != kNoArchReg)
        os << " r" << src1;
    if (src2 != kNoArchReg)
        os << ", r" << src2;
    if (isBranch())
        os << (taken ? " taken->0x" : " nt->0x") << std::hex << nextPc()
           << std::dec;
    if (op == OpClass::Load || op == OpClass::Store)
        os << " @0x" << std::hex << effAddr << std::dec;
    return os.str();
}

} // namespace flywheel

#include "htmpll/obs/report.hpp"

namespace htmpll::obs {

std::string git_describe() {
#ifdef HTMPLL_GIT_DESCRIBE
  return HTMPLL_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

}  // namespace htmpll::obs

#include "htmpll/obs/report.hpp"

#include "htmpll_git_describe.h"

namespace htmpll::obs {

std::string git_describe() { return HTMPLL_GIT_DESCRIBE; }

}  // namespace htmpll::obs

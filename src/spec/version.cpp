#include "spec/version.hpp"

#include "pofi_git_rev.hpp"  // POFI_GIT_REV, generated at build time

#ifndef POFI_VERSION_STRING
#define POFI_VERSION_STRING "0.0.0"
#endif

namespace pofi::spec {

const char* pofi_version() { return "pofi " POFI_VERSION_STRING "+" POFI_GIT_REV; }

}  // namespace pofi::spec

# Writes OUTPUT, a header defining POFI_GIT_REV: the short HEAD revision of
# the git checkout holding SOURCE_DIR with "+dirty" appended when a tracked
# file differs from HEAD, or "unreleased" outside a checkout (or without
# git). The header is rewritten only when its text changes, so a build at an
# unchanged revision recompiles nothing.
#
#   cmake -DSOURCE_DIR=<dir> -DOUTPUT=<header> -P git_rev.cmake
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE rev
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT rev)
  set(rev "unreleased")
else()
  execute_process(
    COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE changes
    ERROR_QUIET)
  if(changes)
    string(APPEND rev "+dirty")
  endif()
endif()

set(text "// Generated by src/spec/git_rev.cmake at build time.\n#define POFI_GIT_REV \"${rev}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUTPUT}" "${text}")
endif()

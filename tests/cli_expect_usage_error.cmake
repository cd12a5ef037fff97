# Runs `${POFI_RUN} ${ARGS}` (ARGS is a |-separated list) and requires the
# usage-error exit code 2, an empty stdout and a single stderr line naming
# ${FLAG}.
#
#   cmake -DPOFI_RUN=path/to/pofi_run -DARGS="--spec|s.json|--threads|abc"
#         -DFLAG=--threads -P cli_expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" " " shown "${ARGS}")
execute_process(COMMAND "${POFI_RUN}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "pofi_run ${shown}: exit ${code}, expected 2\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "pofi_run ${shown}: printed to stdout:\n${out}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "pofi_run ${shown}: stderr does not name ${FLAG}:\n${err}")
endif()
string(FIND "${err}" "\n" newline)
string(LENGTH "${err}" length)
math(EXPR last "${length} - 1")
if(NOT newline EQUAL last)
  message(FATAL_ERROR "pofi_run ${shown}: stderr is not one line:\n${err}")
endif()

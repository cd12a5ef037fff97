# A checkpoint whose lines are whole but no longer parse (every record of a
# build that still wrote the "attempts" key) re-runs its entries on --resume
# and warns about the dropped lines, but does not call them a torn write.
#
#   cmake -DPOFI_RUN=path/to/pofi_run -DSPECS=specs -DWORK=scratch/dir
#         -P cli_resume_malformed.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(checkpoint "${WORK}/checkpoint.jsonl")
set(run "${POFI_RUN}" --spec "${SPECS}/quickstart.json" --progress off
        --set experiment.faults=3 --set experiment.total_requests=300 --checkpoint "${checkpoint}")
execute_process(COMMAND ${run} RESULT_VARIABLE code OUTPUT_VARIABLE fresh ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "checkpointing run exited ${code}\nstderr: ${err}")
endif()
file(READ "${checkpoint}" records)
string(REGEX REPLACE "(^|\n){" "\\1{\"attempts\":1," records "${records}")
file(WRITE "${checkpoint}" "${records}")

execute_process(COMMAND ${run} --resume RESULT_VARIABLE code OUTPUT_VARIABLE resumed
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "resumed run exited ${code}\nstderr: ${err}")
endif()
if(NOT resumed STREQUAL fresh)
  message(FATAL_ERROR "resumed report differs:\n${resumed}\nexpected:\n${fresh}")
endif()
string(FIND "${err}" "dropped 1 unparseable line(s)" warned)
if(warned EQUAL -1)
  message(FATAL_ERROR "no warning about the dropped line:\n${err}")
endif()
string(FIND "${err}" "torn write" torn)
if(NOT torn EQUAL -1)
  message(FATAL_ERROR "whole malformed lines reported as a torn write:\n${err}")
endif()

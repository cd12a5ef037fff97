# A crash sweep run with --metrics DIR writes the runner.json sidecar, and
# the sidecar carries the sweep's torture.* and checkpoint.* counters.
#
#   cmake -DPOFI_RUN=path/to/pofi_run -DSPECS=specs -DWORK=scratch/dir
#         -P cli_sweep_metrics.cmake
file(REMOVE_RECURSE "${WORK}")
execute_process(COMMAND "${POFI_RUN}" --spec "${SPECS}/torture_smoke.json" --threads 1
                        --progress off --set torture.window_count=4 --metrics "${WORK}"
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "crash sweep exited ${code}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT EXISTS "${WORK}/runner.json")
  message(FATAL_ERROR "--metrics wrote no ${WORK}/runner.json")
endif()
file(READ "${WORK}/runner.json" sidecar)
foreach(counter torture.points_explored torture.points_injected torture.violations
                checkpoint.malformed_lines_dropped checkpoint.stale_records_dropped)
  string(FIND "${sidecar}" "\"${counter}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "runner.json does not name ${counter}:\n${sidecar}")
  endif()
endforeach()

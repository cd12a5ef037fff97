# Pinned result rows of one committed spec: run it, reduce its output to one
# canonical line per result row and compare the lines with the pinned file.
# A campaign row holds the entry label, faults, requests, data failures, FWA
# failures and IO errors; a crash-sweep row holds the sweep's name, schedule
# length, planned/explored/injected points and violations. Provenance and
# timing (spec hash, build stamp, IOPS, latency) stay out, so a row moves
# only when a simulated result does. Field names follow perfbench's
# row_fingerprint.
#
#   cmake -DPOFI_RUN=path/to/pofi_run -DSPEC=specs/fig8_iops.json
#         -DEXPECTED=specs/expected/fig8_iops.rows -DWORK=scratch/dir
#         [-DWRITE=ON] -P spec_rows.cmake
#
# WRITE=ON rewrites the pinned file instead of comparing with it
# (scripts/pin_spec_rows.sh does that for every committed spec).
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(READ "${SPEC}" doc)
string(FIND "${doc}" "\"torture\"" sweep_at)

set(rows "")
if(sweep_at EQUAL -1)
  set(csv "${WORK}/rows.csv")
  execute_process(COMMAND "${POFI_RUN}" --spec "${SPEC}" --threads 2 --progress off
                          --csv "${csv}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "campaign exited ${code}\nstdout: ${out}\nstderr: ${err}")
  endif()
  file(STRINGS "${csv}" lines)
  foreach(line IN LISTS lines)
    # label,faults,requests,data failures,FWA,IO errors,loss/fault,IOPS,Q2C
    if(line MATCHES "^(.*),([0-9]+),([0-9]+),([0-9]+),([0-9]+),([0-9]+),[^,]*,[^,]*,[^,]*$")
      string(APPEND rows "${CMAKE_MATCH_1}|faults=${CMAKE_MATCH_2}|requests=${CMAKE_MATCH_3}"
                         "|data_failures=${CMAKE_MATCH_4}|fwa_failures=${CMAKE_MATCH_5}"
                         "|io_errors=${CMAKE_MATCH_6}\n")
    endif()
  endforeach()
else()
  execute_process(COMMAND "${POFI_RUN}" --spec "${SPEC}" --threads 2 --progress off
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "crash sweep exited ${code}\nstdout: ${out}\nstderr: ${err}")
  endif()
  if(NOT out MATCHES "pofi_run torture: ([^ ]+) \\|")
    message(FATAL_ERROR "no sweep name in the report:\n${out}")
  endif()
  set(name "${CMAKE_MATCH_1}")
  string(CONCAT lattice_line "schedule: ([0-9]+) event boundaries \\| lattice: ([0-9]+) "
                "point\\(s\\) planned, ([0-9]+) explored, ([0-9]+) fault\\(s\\) injected")
  if(NOT out MATCHES "${lattice_line}")
    message(FATAL_ERROR "no lattice line in the report:\n${out}")
  endif()
  string(CONCAT lattice "schedule_events=${CMAKE_MATCH_1}|points_planned=${CMAKE_MATCH_2}"
                "|points_explored=${CMAKE_MATCH_3}|points_injected=${CMAKE_MATCH_4}")
  set(violations 0)
  if(out MATCHES "invariants: ([0-9]+) violation")
    set(violations "${CMAKE_MATCH_1}")
  endif()
  set(rows "${name}|${lattice}|violations=${violations}\n")
endif()

if(rows STREQUAL "")
  message(FATAL_ERROR "no result rows in the output of ${SPEC}")
endif()
if(WRITE)
  file(WRITE "${EXPECTED}" "${rows}")
  return()
endif()
if(NOT EXISTS "${EXPECTED}")
  message(FATAL_ERROR "no pinned rows for ${SPEC}: run scripts/pin_spec_rows.sh\n${rows}")
endif()
file(READ "${EXPECTED}" pinned)
if(NOT rows STREQUAL pinned)
  message(FATAL_ERROR "rows of ${SPEC} differ from ${EXPECTED}\ngot:\n${rows}pinned:\n${pinned}")
endif()

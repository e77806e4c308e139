# Runs wm_census on census spaces whose candidate count overflows 64 bits
# and requires the usage exit code (2) for each, before any store is made.
#
#   cmake -DWM_CENSUS=<path to wm_census> -DWORK_DIR=<scratch dir> \
#         -P census_oversize.cmake
foreach(kind_n graph:12 port:7 kripke:46341)
  string(REPLACE ":" ";" parts "${kind_n}")
  list(GET parts 0 kind)
  list(GET parts 1 n)
  execute_process(
    COMMAND "${WM_CENSUS}" --kind ${kind} --n ${n}
            --store "${WORK_DIR}/store-${kind}"
            --checkpoint "${WORK_DIR}/cp-${kind}"
            --batch 1 --budget-secs 1
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "wm_census --kind ${kind} --n ${n}: exit '${rc}', expected 2 (usage)")
  endif()
endforeach()

# Golden-transcript check for skimjoin_cli, run as
#
#   cmake -DCLI=<skimjoin_cli> -DSOURCE_DIR=<tests/transcripts> \
#         -DWORK_DIR=<scratch dir> -DSCRIPTS="session;restore" \
#         [-DFLAGS="--explain"] [-DGOLDEN_SUFFIX=.explain.out] \
#         -P check_transcript.cmake
#
# Runs the CLI once per script, in order and in one fresh working directory
# (so a later script can restore a checkpoint an earlier one wrote). Each
# run's stdout must equal <script><GOLDEN_SUFFIX> byte for byte, and its exit
# status must equal the number on the script's "# exit: <n>" line.

foreach(var CLI SOURCE_DIR WORK_DIR SCRIPTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_transcript.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED GOLDEN_SUFFIX)
  set(GOLDEN_SUFFIX ".out")
endif()
separate_arguments(flag_list UNIX_COMMAND "${FLAGS}")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(COPY "${SOURCE_DIR}/small.trace" DESTINATION "${WORK_DIR}")

set(failed FALSE)
foreach(script IN LISTS SCRIPTS)
  set(script_path "${SOURCE_DIR}/${script}.sj")
  file(STRINGS "${script_path}" exit_line REGEX "^# exit: [0-9]+$" LIMIT_COUNT 1)
  if(NOT exit_line)
    message(FATAL_ERROR "${script_path} has no '# exit: <n>' line")
  endif()
  string(REGEX REPLACE "^# exit: " "" want_exit "${exit_line}")
  execute_process(
    COMMAND "${CLI}" ${flag_list} "${script_path}"
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE got
    RESULT_VARIABLE got_exit
    TIMEOUT 120)
  file(READ "${SOURCE_DIR}/${script}${GOLDEN_SUFFIX}" want)
  if(NOT got STREQUAL want)
    set(got_path "${WORK_DIR}/${script}${GOLDEN_SUFFIX}.actual")
    file(WRITE "${got_path}" "${got}")
    message(SEND_ERROR "${script}: stdout differs from "
            "${script}${GOLDEN_SUFFIX}; actual output in ${got_path}")
    set(failed TRUE)
  endif()
  if(NOT got_exit STREQUAL want_exit)
    message(SEND_ERROR "${script}: exit status ${got_exit}, want ${want_exit}")
    set(failed TRUE)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "transcript check failed")
endif()

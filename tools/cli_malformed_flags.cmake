# Every malformed numeric flag must exit 1 with one stderr line naming the
# flag, before any experiment runs.
#   cmake -DCLI=<path to adaptive_cli> -P cli_malformed_flags.cmake
# Each case is "<flag named in the message>|<arguments>".
set(cases
  "--members|--topology campus --members 1,a"
  "--members|--topology campus --members 1,9"
  "--members|--topology campus --members 1,,2"
  "--src|--src x"
  "--src|--src 9"
  "--duration|--duration abc"
  "--duration|--duration -1"
  "--duration|--duration inf"
  "--drain|--drain 1x"
  "--seed|--seed abc"
  "--seed|--seed -3"
  "--scale|--scale abc"
  "--timeline-period|--timeline-period abc"
  "--jobs|--jobs -1"
  "--jobs|--jobs 0"
  "--chaos|--chaos abc"
  "--fail-link-at|--fail-link-at nan")
foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} flag)
  math(EXPR from "${bar} + 1")
  string(SUBSTRING "${case}" ${from} -1 rest)
  separate_arguments(args UNIX_COMMAND "${rest}")
  execute_process(COMMAND "${CLI}" ${args}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  string(FIND "${err}" "\n" newline)
  string(FIND "${err}" "${flag}" named)
  if(NOT rc EQUAL 1 OR NOT newline EQUAL -1 OR named EQUAL -1)
    message(FATAL_ERROR "adaptive_cli ${rest}: exit '${rc}', stderr '${err}' "
                        "(want exit 1 and one line naming ${flag})")
  endif()
endforeach()
